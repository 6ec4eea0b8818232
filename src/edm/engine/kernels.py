"""Fused epoch kernel: the engine's per-epoch inner math in one call.

One epoch of engine math -- routing bincounts, wear accrual, a rated
run's wear-rate EWMA, and the heat/load EMA updates -- fused into a single
kernel invocation with per-run preallocated scratch buffers and in-place
updates, so the hot loop stops re-allocating intermediate arrays every
epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from edm.config import SimConfig

if TYPE_CHECKING:
    from edm.engine.state import ClusterState

__all__ = ["EpochKernel"]


class EpochKernel:
    """Fused NumPy epoch update with scratch reused across one run.

    A kernel instance belongs to a single ``simulate`` call: the scratch
    buffers are sized to the config and reused every epoch.
    """

    def __init__(self, cfg: SimConfig):
        self.heat_alpha = float(cfg.heat_alpha)
        self.load_alpha = float(cfg.load_alpha)
        self.wear_per_write = float(cfg.wear_per_write)
        # Only a rated run folds the wear rate its wear-out terms read.
        self.wear_rate_alpha = float(cfg.wear_rate_alpha) if cfg.endurance else None
        # Chunk-axis scratch: the chunk set never grows, so one allocation
        # serves the whole run.  The OSD axis is read off the state each
        # epoch, so topology scale-out needs no resize.
        self._scratch_c = np.empty(cfg.num_chunks)

    def epoch_update(
        self, state: "ClusterState", counts: np.ndarray, writes: np.ndarray
    ) -> np.ndarray:
        """Route one epoch's counts and fold them into the state.

        ``counts`` / ``writes`` are per-chunk float64 access and write
        counts (integer-valued; float64 so no cast happens on the hot
        path).  Updates ``osd_wear``, ``chunk_heat`` and ``osd_load_ema``
        (and on a rated run ``osd_wear_rate`` and ``osd_wear_seen``) in
        place and returns the per-OSD load vector for this epoch.
        """
        n = state.num_osds
        # Routing: per-OSD load and write mass via weighted bincounts over
        # the chunk->OSD map.
        load = np.bincount(state.chunk_owner, weights=counts, minlength=n)
        wear_inc = np.bincount(state.chunk_owner, weights=writes, minlength=n)
        # Wear accrual, in place (wear_inc is this call's own bincount
        # output, so scaling it in place is safe).
        np.multiply(wear_inc, self.wear_per_write, out=wear_inc)
        state.osd_wear += wear_inc
        alpha = self.wear_rate_alpha
        if alpha is not None:
            # EWMA of the wear since the last fold (``osd_wear_seen``):
            # routing writes plus any migration wear applied in between.
            delta = state.osd_wear - state.osd_wear_seen
            state.osd_wear_rate *= 1.0 - alpha
            state.osd_wear_rate += alpha * delta
            np.copyto(state.osd_wear_seen, state.osd_wear)
        # Heat EMA over chunks: scratch holds alpha * counts so the update
        # is two in-place passes with zero per-epoch allocation.
        a = self.heat_alpha
        scratch = self._scratch_c
        np.multiply(counts, a, out=scratch)
        state.chunk_heat *= 1.0 - a
        state.chunk_heat += scratch
        # Load EMA over OSDs (tiny; reuse wear_inc as the N-sized scratch).
        np.multiply(load, self.load_alpha, out=wear_inc)
        state.osd_load_ema *= 1.0 - self.load_alpha
        state.osd_load_ema += wear_inc
        return load
