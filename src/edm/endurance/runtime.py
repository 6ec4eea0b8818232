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

One deliberate safety valve: wear-outs obey the survivor floor every
departure obeys (:func:`~edm.faults.departure_room`), so they never shrink
the cluster below ``max(1, group_width)`` alive OSDs -- the last survivor
of a plain cluster, one full placement group of a redundant one, so every
group can still spread its members over distinct OSDs.  If failing every
worn OSD at a boundary would cross the floor, the worn OSDs with the most
relative headroom keep serving past their budget (real clusters degrade,
they don't evaporate); everything else fails normally.  Wear-outs are the
one departure the config-time dry run cannot foresee.

This module only touches NumPy arrays on the state object (duck-typed, no
engine imports), keeping the endurance package import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from edm.endurance.spec import EnduranceModel
from edm.faults.plan import FaultEvent
from edm.faults.runtime import departure_room, leave

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
        self._alpha = cfg.wear_rate_alpha

    def attach(self, state: "ClusterState") -> None:
        """Install the rated budgets on freshly initialized state."""
        state.osd_rated_life = self.model.per_osd(state.num_osds)

    def step(self, state: "ClusterState", epoch: int) -> list[FaultEvent]:
        """Fail alive OSDs at or past their rated budget, as many as
        :func:`~edm.faults.departure_room` allows; returns the events.

        Deterministic: candidates are found by a vectorized comparison; when
        the room is short, the worn OSDs with the largest overdraft leave
        (ties to the higher OSD id), and they fail in OSD-id order.  The
        engine re-places each failed OSD's chunks immediately, so
        ``state.validate()`` holds after every event.
        """
        worn = state.osd_alive & (state.osd_wear >= state.osd_rated_life)
        if not worn.any():
            return []
        ids = np.flatnonzero(worn)
        room = departure_room(state)
        if room < ids.size:
            # The least overdrawn keep serving past their rating rather than
            # shrinking the cluster below the survivor floor.
            overdraft = state.osd_wear[ids] / state.osd_rated_life[ids]
            ids = np.sort(ids[np.argsort(overdraft, kind="stable")[ids.size - room :]])
        events = []
        for osd in ids:
            leave(state, osd)
            events.append(FaultEvent(kind="wearout", osd=int(osd), epoch=epoch))
        return events

    def update_rate(self, state: "ClusterState") -> None:
        """EWMA the wear accrued since the previous update into the state.

        ``osd_wear_seen`` holds each OSD's wear at the previous update; an
        added drive joins with both at zero.
        """
        delta = state.osd_wear - state.osd_wear_seen
        state.osd_wear_rate *= 1.0 - self._alpha
        state.osd_wear_rate += self._alpha * delta
        np.copyto(state.osd_wear_seen, state.osd_wear)
