"""Topology runtime: applies a :class:`~edm.topology.spec.TopologyPlan` to
live cluster state.

The engine calls :meth:`TopologyRuntime.step` once per epoch *before* the
fault and endurance steps; the runtime grows every per-OSD array for ``add``
events (new drives join cold: zero wear, zero load, empty queues) and marks
``drain`` targets migration-source-only via ``osd_draining``.  The engine
then evacuates a draining OSD's chunks through the active policy's
destination scoring -- the same re-placement machinery a failure uses,
but *graceful*: the drive is still alive while its chunks stream off, and
:meth:`retire` only afterwards flips it dead, with no lost queue work.

Device classes: an added band's capacity, service rate, and rated P/E come
from the event's attributes, falling back to the cluster's defaults --
capacity 1.0, the service model's default rate (``inf`` without a service
model: backlog retires instantly), the endurance model's default rating
(``inf`` without one: unrated).

This module only touches NumPy arrays on the state object (duck-typed, no
engine imports), keeping the topology package import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from edm.topology.spec import TopologyEvent, TopologyPlan

if TYPE_CHECKING:
    from edm.engine.state import ClusterState


class TopologyRuntime:
    """Steps a plan's events into cluster state at epoch boundaries."""

    def __init__(self, plan: TopologyPlan, service=None, endurance=None):
        # ``service`` / ``endurance`` are the run's parsed models (or None /
        # falsy): they supply the default rate and rating for added bands
        # that don't pin their own.
        self.plan = plan
        self._by_epoch: dict[int, list[TopologyEvent]] = {}
        for ev in plan.events:
            self._by_epoch.setdefault(ev.epoch, []).append(ev)
        self._fallback_rate = service.default if service else None
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
                self._grow(state, ev)
            elif state.osd_alive[ev.osd] and (
                (state.osd_alive & ~state.osd_draining).sum() <= state.survivor_floor
            ):
                continue
            else:
                state.osd_draining[ev.osd] = True
            fired.append(ev)
        return fired

    def _grow(self, state: "ClusterState", ev: TopologyEvent) -> None:
        """Append ``ev.count`` cold drives of the event's device class."""
        k = ev.count
        rate = ev.rate if ev.rate is not None else self._fallback_rate
        pe = ev.pe if ev.pe is not None else self._fallback_pe
        state.osd_wear = np.concatenate([state.osd_wear, np.zeros(k)])
        state.osd_load_ema = np.concatenate([state.osd_load_ema, np.zeros(k)])
        state.osd_alive = np.concatenate([state.osd_alive, np.ones(k, dtype=bool)])
        state.osd_capacity = np.concatenate([state.osd_capacity, np.full(k, ev.cap)])
        state.osd_rated_life = np.concatenate(
            [state.osd_rated_life, np.full(k, pe if pe is not None else np.inf)]
        )
        state.osd_wear_rate = np.concatenate([state.osd_wear_rate, np.zeros(k)])
        state.osd_service_rate = np.concatenate(
            [
                state.osd_service_rate,
                np.full(k, rate if rate is not None else np.inf),
            ]
        )
        state.osd_queue_depth = np.concatenate([state.osd_queue_depth, np.zeros(k)])
        state.osd_mig_backlog = np.concatenate([state.osd_mig_backlog, np.zeros(k)])
        state.osd_draining = np.concatenate(
            [state.osd_draining, np.zeros(k, dtype=bool)]
        )
        state.num_osds += k
        if ev.cap != 1.0:
            # Off-nominal capacity flips selection onto the effective-load
            # path, exactly like a slow-disk fault would.
            state.degraded = True

    def retire(self, state: "ClusterState", osd: int) -> None:
        """Finish a drain: the evacuated OSD leaves the cluster for good.

        The engine evacuated its chunks while it was alive, so nothing
        routes to it any more.  Its queue and pending migration work (which
        holds the source-side charge of the evacuation) are discarded here
        and, unlike a failure's, not counted as lost work.
        """
        state.osd_alive[osd] = False
        state.osd_capacity[osd] = 0.0
        state.osd_queue_depth[osd] = 0.0
        state.osd_mig_backlog[osd] = 0.0
        state.degraded = True
