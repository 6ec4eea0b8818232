"""Endurance runtime: rated lifetimes, wear-rate EWMA, wear-out failures.

The engine calls :meth:`EnduranceTracker.step` once per epoch *before*
routing (right after any scheduled fault events): an OSD whose consumed
cycles have reached its rated budget fails at that epoch boundary, exactly
like a scheduled ``fail`` event -- the engine re-places its chunks through
the active policy and fans a synthesized ``wearout`` :class:`FaultEvent`
out to every recorder via the ``on_fault`` hook.

:meth:`EnduranceTracker.update_rate` folds each epoch's wear delta (routing
writes plus any migration wear applied since the previous update) into
``state.osd_wear_rate``, an EWMA smoothed by ``cfg.wear_rate_alpha``.  The
rate drives :meth:`~edm.engine.state.ClusterState.predicted_wearout_epochs`,
the epochs-to-wear-out estimate CMT's destination score steers by.

One deliberate safety valve: wear-outs never shrink the cluster below
``state.survivor_floor`` (``max(1, group_width)``) alive OSDs -- the last
survivor of a plain cluster, one full placement group of a redundant one,
so every group can still spread its members over distinct OSDs.  If
failing every worn OSD at a boundary would cross the floor, the worn OSDs
with the most relative headroom keep serving past their budget (real
clusters degrade, they don't evaporate); everything else fails normally.

This module only touches NumPy arrays on the state object (duck-typed, no
engine imports), keeping the endurance package import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from edm.endurance.spec import EnduranceModel
from edm.faults.plan import FaultEvent

if TYPE_CHECKING:
    from edm.config import SimConfig
    from edm.engine.state import ClusterState


def wearout_risk(state: "ClusterState") -> np.ndarray:
    """Per-OSD wear-out risk in ``[0, 1]``: ``1 / (1 + predicted epochs)``.

    0 for an OSD predicted to live forever (no rating, or no write traffic),
    approaching 1 as predicted epochs-to-wear-out falls to zero.  A bounded
    transform of the prediction, so CMT can normalize it by a cluster-wide
    mean exactly like its load and wear terms.
    """
    return 1.0 / (1.0 + state.predicted_wearout_epochs())


class EnduranceTracker:
    """Steps rated-lifetime bookkeeping into cluster state each epoch."""

    def __init__(self, model: EnduranceModel, cfg: "SimConfig"):
        self.model = model
        self._ratings = model.per_osd(cfg.num_osds)
        self._alpha = cfg.wear_rate_alpha
        self._prev_wear: np.ndarray | None = None

    def attach(self, state: "ClusterState") -> None:
        """Install the rated budgets on freshly initialized state."""
        state.osd_rated_life = self._ratings.copy()
        self._prev_wear = state.osd_wear.copy()

    def step(self, state: "ClusterState", epoch: int) -> list[FaultEvent]:
        """Fail every alive OSD at or past its rated budget, down to the
        survivor floor; returns the events.

        Deterministic: candidates are found by a vectorized comparison and
        fail in OSD-id order.  The engine re-places each failed OSD's chunks
        immediately, so ``state.validate()`` holds after every event.
        """
        worn = state.osd_alive & (state.osd_wear >= state.osd_rated_life)
        if not worn.any():
            return []
        ids = np.flatnonzero(worn)
        healthy = int(state.osd_alive.sum()) - ids.size
        spare = state.survivor_floor - healthy
        if spare > 0:
            # Survivor floor: keep the worn OSDs with the most relative
            # headroom serving past their rating rather than shrinking the
            # cluster below one placement group (ties break to the lowest
            # OSD id).
            overdraft = state.osd_wear[ids] / state.osd_rated_life[ids]
            ids = np.delete(ids, np.argsort(overdraft, kind="stable")[:spare])
        events = []
        for osd in ids:
            state.osd_alive[osd] = False
            state.osd_capacity[osd] = 0.0
            events.append(FaultEvent(kind="wearout", osd=int(osd), epoch=epoch))
        return events

    def update_rate(self, state: "ClusterState") -> None:
        """EWMA the wear accrued since the previous update into the state.

        Drives added by a topology scale-out since the previous update joined
        at zero wear, so the baseline grows by zeros.
        """
        grown = state.num_osds - self._prev_wear.size
        if grown:
            self._prev_wear = np.concatenate([self._prev_wear, np.zeros(grown)])
        delta = state.osd_wear - self._prev_wear
        state.osd_wear_rate *= 1.0 - self._alpha
        state.osd_wear_rate += self._alpha * delta
        np.copyto(self._prev_wear, state.osd_wear)
