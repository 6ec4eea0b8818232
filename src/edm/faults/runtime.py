"""Fault runtime: applies a :class:`~edm.faults.plan.FaultPlan` to live state.

The engine calls :meth:`FaultRuntime.step` once per epoch *before* routing;
the runtime flips ``osd_alive``, recomputes ``osd_capacity`` (base capacity
eroded by ``slow`` events, further scaled by any active ``hiccup`` windows,
zeroed for dead OSDs).  Policies rank OSDs by effective load
(:func:`effective_load`), which on a healthy cluster equals raw load.

Capacity semantics:

* ``slow`` multiplies the OSD's *base* capacity permanently (two ``slow``
  events compound).
* ``hiccup`` scales the current base only inside its window; when the window
  closes the OSD returns to its base capacity.
* ``fail`` pins capacity to 0 and ``alive`` to False forever -- unless it
  would leave fewer than ``state.survivor_floor`` OSDs alive (for example
  after wear-outs already reached that floor), in which case it is skipped
  and not reported as fired, the same floor wear-outs and drains stop at.

This module only touches NumPy arrays on the state object (duck-typed, no
engine imports), keeping the faults package import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from edm.faults.plan import FaultEvent, FaultPlan

if TYPE_CHECKING:
    from edm.engine.state import ClusterState


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


class FaultRuntime:
    """Steps a plan's events into cluster state at epoch boundaries."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._starts: dict[int, list[FaultEvent]] = {}
        self._ends: dict[int, list[FaultEvent]] = {}
        for ev in plan.events:
            self._starts.setdefault(ev.epoch, []).append(ev)
            if ev.kind == "hiccup":
                self._ends.setdefault(ev.epoch + ev.duration, []).append(ev)
        # Epochs where a ``fail`` starts: only they need the alive count.
        self._fail_epochs = {ev.epoch for ev in plan.events if ev.kind == "fail"}
        self._base: np.ndarray | None = None
        self._active_hiccups: list[FaultEvent] = []

    def step(self, state: "ClusterState", epoch: int) -> list[FaultEvent]:
        """Apply events scheduled for ``epoch``; returns the events that fired.

        Expiring hiccup windows are processed first, then this epoch's new
        events, in the plan's canonical order -- fully deterministic.  A
        ``fail`` that would cross the survivor floor does not fire.
        """
        if self._base is None:
            # Base capacity is whatever the cluster starts (or has grown)
            # with -- all ones for a homogeneous cluster, the device-class
            # factors under a heterogeneous topology plan -- so a later
            # recompute never resets an added band to nominal.
            self._base = state.osd_capacity.astype(np.float64).copy()
        elif self._base.size < state.num_osds:
            # Topology scale-out since the last step: adopt the new drives'
            # device-class capacity as their base.
            self._base = np.concatenate(
                [self._base, state.osd_capacity[self._base.size :]]
            )
        changed = False
        for ev in self._ends.pop(epoch, []):
            self._active_hiccups.remove(ev)
            changed = True
        fired = []
        alive = int(state.osd_alive.sum()) if epoch in self._fail_epochs else 0
        for ev in self._starts.get(epoch, []):
            if ev.kind == "fail":
                if state.osd_alive[ev.osd]:
                    if alive <= state.survivor_floor:
                        continue
                    alive -= 1
                state.osd_alive[ev.osd] = False
            elif ev.kind == "slow":
                self._base[ev.osd] *= ev.factor
            else:  # hiccup
                self._active_hiccups.append(ev)
            fired.append(ev)
            changed = True
        if changed:
            cap = self._base.copy()
            for ev in self._active_hiccups:
                cap[ev.osd] *= ev.factor
            cap[~state.osd_alive] = 0.0
            state.osd_capacity = cap
        return fired
