"""Departure timeline: the fault and topology plans as one event list,
with wear-outs as its third layer.

:func:`compile_timeline` merges both plans into one ordered tuple of
:class:`Tick` at config time (``cfg.plans["timeline"]``): by epoch,
topology events before fault events, closing hiccup windows before new
fault events, each plan's canonical order within its kind.
:class:`Timeline` steps it one layer (a batch) at a time -- ``topology``,
``faults``, then ``endurance``, whose unscheduled ``wearout`` events fail
the alive OSDs that reached their rated budget; the engine re-places
departing OSDs' chunks after the whole batch is applied.

Every departure -- ``fail``, ``drain`` and ``wearout`` -- obeys one rule,
:func:`departure_room`: an alive OSD may leave only while more than
``state.survivor_floor`` OSDs are alive and not draining.  A refused
departure does not fire; one aimed at an OSD that has already left still
does.  :meth:`Timeline.dry_run` steps the plans at config time, so only
wear-outs can meet the floor at run time.

``slow`` multiplies an OSD's ``osd_base_capacity`` for good (repeats
compound); ``hiccup`` scales it only inside its window; ``fail`` and
``wearout`` pin capacity to 0 and ``alive`` to False.  ``add`` grows the
cluster by cold drives of the event's device class; ``drain`` marks its
OSD migration-source-only, and :func:`leave` retires it once evacuated.

This module only touches the state object it is handed (duck-typed, no
engine imports), keeping the faults package import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from edm.faults.plan import WEAROUT_KIND, FaultEvent, FaultPlan

if TYPE_CHECKING:
    from edm.engine.state import ClusterState
    from edm.topology.spec import TopologyEvent, TopologyPlan


def effective_load(
    load: np.ndarray, capacity: np.ndarray, alive: np.ndarray
) -> np.ndarray:
    """Per-OSD load scaled by capacity: ``load / capacity``, ``inf`` when dead.

    A half-capacity disk serving the same traffic is twice as loaded; a dead
    disk is infinitely loaded, so it can never be picked as underloaded.
    Safe under ``-W error::RuntimeWarning``: the division only runs where
    capacity is positive.
    """
    out = np.full(load.shape, np.inf)
    np.divide(load, capacity, out=out, where=capacity > 0)
    out[~alive] = np.inf
    return out


def departure_room(state: "ClusterState") -> int:
    """How many more OSDs may leave: those alive and not draining, above
    ``state.survivor_floor``.  Every departure kind asks this one question."""
    return int(np.count_nonzero(state.osd_alive & ~state.osd_draining)) - state.survivor_floor


def leave(state: "ClusterState", osd: int) -> None:
    """The OSD leaves the cluster for good: dead, zero capacity."""
    state.osd_alive[osd] = False
    state.osd_capacity[osd] = 0.0


class Tick(NamedTuple):
    """A timeline entry; ``ends`` marks a hiccup window closing (never fired)."""

    epoch: int
    layer: str
    event: "FaultEvent | TopologyEvent"
    ends: bool = False


def compile_timeline(faults: FaultPlan, topology: "TopologyPlan") -> tuple[Tick, ...]:
    """Both plans as one ordered tuple (see the module docstring)."""
    ticks = [Tick(ev.epoch, "topology", ev) for ev in topology.events]
    ticks += [
        Tick(ev.epoch + ev.duration, "faults", ev, ends=True)
        for ev in faults.events
        if ev.kind == "hiccup"
    ]
    ticks += [Tick(ev.epoch, "faults", ev) for ev in faults.events]
    # Stable: each plan's canonical order survives within a kind.
    return tuple(sorted(ticks, key=lambda t: (t.epoch, t.layer == "faults", not t.ends)))


class Timeline:
    """Steps a compiled timeline into cluster state at epoch boundaries.

    ``fallback_pe`` rates added drives whose event pins no ``pe`` (the
    endurance model's default, ``None`` for unrated).  ``refuse(state,
    event)`` is called for each departure the survivor floor refuses; by
    default a refused departure is silently skipped.
    """

    def __init__(
        self,
        ticks: tuple[Tick, ...],
        fallback_pe: float | None = None,
        refuse: Callable | None = None,
    ):
        self._batches: dict[tuple[int, str], list[Tick]] = {}
        for tick in ticks:
            self._batches.setdefault((tick.epoch, tick.layer), []).append(tick)
        self._fallback_pe = fallback_pe
        self._refuse = refuse
        self._hiccups: list[FaultEvent] = []  # open windows, in start order

    def step(
        self, state: "ClusterState", epoch: int, layer: str, before: Callable = lambda: None
    ) -> list:
        """Apply ``layer``'s events for ``epoch``; returns the events that fired.

        ``layer`` is ``"topology"``, ``"faults"`` or ``"endurance"``.
        ``before()`` is called first whenever the step may change ``state``:
        a batch is scheduled, or an OSD wears out.  A fault batch that
        changed anything recomputes capacity.  When the room is short for
        every worn OSD, the most overdrawn wear out (ties to the higher id)
        and the rest keep serving past their budget.
        """
        if layer == "endurance":
            worn = np.flatnonzero(state.osd_alive & (state.osd_wear >= state.osd_rated_life))
            room = departure_room(state) if worn.size else 0
            if room <= 0:
                return []
            if room < worn.size:
                overdraft = state.osd_wear[worn] / state.osd_rated_life[worn]
                worn = np.sort(worn[np.argsort(overdraft, kind="stable")[worn.size - room :]])
            before()
            for osd in worn:
                leave(state, osd)
            return [FaultEvent(WEAROUT_KIND, int(osd), epoch) for osd in worn]
        batch = self._batches.get((epoch, layer))
        if batch is None:
            return []
        before()
        fired, closed = [], False
        for tick in batch:
            ev = tick.event
            if tick.ends:
                self._hiccups.remove(ev)
                closed = True
                continue
            kind = ev.kind
            if kind in ("fail", "drain") and state.osd_alive[ev.osd] and departure_room(state) <= 0:
                if self._refuse is not None:
                    self._refuse(state, ev)
                continue
            if kind == "add":
                # Cold drives of the event's device class.
                pe = ev.pe if ev.pe is not None else self._fallback_pe
                state.grow(
                    ev.count, osd_capacity=ev.cap, osd_base_capacity=ev.cap, osd_rated_life=pe
                )
            elif kind == "drain":
                state.osd_draining[ev.osd] = True
            elif kind == "fail":
                leave(state, ev.osd)
            elif kind == "slow":
                state.osd_base_capacity[ev.osd] *= ev.factor
            else:  # hiccup
                self._hiccups.append(ev)
            fired.append(ev)
        if layer == "faults" and (fired or closed):
            cap = state.osd_base_capacity.copy()
            for ev in self._hiccups:
                cap[ev.osd] *= ev.factor
            cap[~state.osd_alive] = 0.0
            state.osd_capacity = cap
        return fired

    def dry_run(self, state: "ClusterState") -> None:
        """Step every batch over ``state`` with no traffic, so no wear-outs
        and no bursts: drains leave at once."""
        for epoch, layer in self._batches:
            for ev in self.step(state, epoch, layer):
                if ev.kind == "drain":
                    leave(state, ev.osd)

