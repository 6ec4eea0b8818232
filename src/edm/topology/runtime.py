"""Topology runtime: applies a :class:`~edm.topology.spec.TopologyPlan` to
live cluster state.

The engine calls :meth:`TopologyRuntime.step` once per epoch *before* the
fault and endurance steps; the runtime grows the cluster through
:meth:`~edm.engine.state.ClusterState.grow` for ``add`` events (new drives
join cold: zero wear, zero load) and marks
``drain`` targets migration-source-only via ``osd_draining``.  The engine
then evacuates a draining OSD's chunks through the active policy's
destination scoring -- the same re-placement machinery a failure uses,
but *graceful*: the drive is still alive while its chunks stream off, and
:meth:`retire` only afterwards flips it dead.  Queues are the service
recorder's: it gives added drives their rate and discards a drained OSD's
queue, uncounted as lost work, from ``on_topology``.

Device classes: an added band's capacity and rated P/E come from the
event's attributes, falling back to the cluster's defaults -- capacity
1.0, the endurance model's default rating (``inf`` without one:
unrated).

This module only touches the state object it is handed (duck-typed, no
engine imports), keeping the topology package import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from edm.topology.spec import TopologyEvent, TopologyPlan

if TYPE_CHECKING:
    from edm.engine.state import ClusterState


class TopologyRuntime:
    """Steps a plan's events into cluster state at epoch boundaries."""

    def __init__(self, plan: TopologyPlan, endurance=None):
        # ``endurance`` is the run's parsed model (or None / falsy): it
        # supplies the default rating for added bands that don't pin one.
        self.plan = plan
        self._by_epoch: dict[int, list[TopologyEvent]] = {}
        for ev in plan.events:
            self._by_epoch.setdefault(ev.epoch, []).append(ev)
        self._fallback_pe = endurance.default if endurance else None

    def step(self, state: "ClusterState", epoch: int) -> list[TopologyEvent]:
        """Apply events scheduled for ``epoch``; returns the events that fired.

        ``add`` events grow the state in place; ``drain`` events only mark
        the target (``osd_draining``) -- the engine evacuates its chunks and
        calls :meth:`retire`, so recorders observe the evacuation's move
        count alongside the event.  A drain of an alive OSD that would leave
        fewer than ``state.survivor_floor`` alive OSDs is skipped and not
        reported as fired, the floor ``fail`` events stop at.
        """
        fired = []
        for ev in self._by_epoch.get(epoch, []):
            if ev.kind == "add":
                # Cold drives of the event's device class.
                state.grow(
                    ev.count,
                    osd_capacity=ev.cap,
                    osd_rated_life=ev.pe if ev.pe is not None else self._fallback_pe,
                )
            elif state.osd_alive[ev.osd] and (
                (state.osd_alive & ~state.osd_draining).sum() <= state.survivor_floor
            ):
                continue
            else:
                state.osd_draining[ev.osd] = True
            fired.append(ev)
        return fired

    def retire(self, state: "ClusterState", osd: int) -> None:
        """Finish a drain: the evacuated OSD leaves the cluster for good.

        The engine evacuated its chunks while it was alive, so nothing
        routes to it any more.
        """
        state.osd_alive[osd] = False
        state.osd_capacity[osd] = 0.0
