"""Synthetic traces: Zipf-skewed chunk access with drift and bursts.

The four traces of the paper's evaluation differ only in five numbers -- a
popularity exponent, read/write mix, hotspot drift and burstiness -- each
one a row of :data:`edm.config.TRACES`.  :class:`SyntheticTrace` draws the
configured trace's row.  An epoch's accesses are one multinomial over the
chunk-popularity vector, not per-request samples.

:meth:`SyntheticTrace.draw` is the one draw routine.  ``epoch_counts``
draws into the trace's own buffers; :func:`edm.workloads.traffic` either
calls it epoch by epoch or runs ``draw`` ahead of the engine in a forked
producer.  Either way the same draws come out in the same order.
"""

from __future__ import annotations

import numpy as np

from edm.config import TRACES, SimConfig


class SyntheticTrace:
    """The configured trace (``cfg.workload``'s row of :data:`TRACES`);
    ``epoch_counts`` returns the per-chunk read+write access counts for one
    epoch."""

    def __init__(self, cfg: SimConfig, rng: np.random.Generator):
        (self.base_zipf, self.write_ratio, self.drift_period, self.drift_step,
         self.burstiness) = TRACES[cfg.workload]
        self.cfg = cfg
        self.rng = rng
        theta = self.base_zipf + cfg.skew
        ranks = np.arange(1, cfg.num_chunks + 1, dtype=np.float64)
        p = ranks ** -theta
        self._base_probs = p / p.sum()
        # Hot-path buffers: the float64 count arrays handed to the engine,
        # rewritten in place every epoch so the kernel never casts or
        # allocates.  Consumers read them within the epoch (the recorder
        # contract) -- the next epoch_counts call overwrites them.
        self._countsf = np.empty(cfg.num_chunks)
        self._writesf = np.empty(cfg.num_chunks)
        # One-slot cache for the drifted popularity vector: the hotspot only
        # rotates every drift_period epochs, so np.roll runs per shift, not
        # per epoch.
        self._probs_shift = 0
        self._probs_cache = self._base_probs

    def probs(self, epoch: int) -> np.ndarray:
        """Chunk popularity vector for this epoch (hotspot drift applied)."""
        if self.drift_period and self.drift_step:
            shift = ((epoch // self.drift_period) * self.drift_step) % self.cfg.num_chunks
            if shift:
                if shift != self._probs_shift:
                    self._probs_shift = shift
                    self._probs_cache = np.roll(self._base_probs, shift)
                return self._probs_cache
        return self._base_probs

    def epoch_volume(self, epoch: int) -> int:
        base = self.cfg.requests_per_epoch
        if self.burstiness > 0:
            # Gamma with mean 1: occasional epochs with several-x volume.
            scale = self.rng.gamma(1.0 / self.burstiness, self.burstiness)
            return max(1, int(round(base * scale)))
        return base

    def draw(self, epoch: int, counts_out: np.ndarray, writes_out: np.ndarray) -> None:
        """Draw one epoch's (access, write) counts into the given float64 arrays.

        The integer draws are unchanged from the historical int64 path --
        one multinomial over the popularity vector plus an element-wise
        binomial split into writes -- and land in ``counts_out`` /
        ``writes_out`` as integer-valued float64, the dtype the engine's
        fused kernel consumes without a cast.  When at most a quarter of
        the chunks got a request, only those are split: a zero count draws
        nothing, so values and generator state match the dense split's.
        """
        counts = self.rng.multinomial(self.epoch_volume(epoch), self.probs(epoch))
        np.copyto(counts_out, counts, casting="unsafe")
        if np.count_nonzero(counts) * 4 > counts.size:
            np.copyto(writes_out, self.rng.binomial(counts, self.write_ratio), casting="unsafe")
            return
        nz = np.flatnonzero(counts)
        n = counts[nz]
        del counts  # the sparse split never holds more than the dense one
        writes_out.fill(0.0)
        writes_out[nz] = self.rng.binomial(n, self.write_ratio)

    def epoch_counts(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (access_counts, write_counts) for one epoch.

        Both are float64 arrays ``[num_chunks]`` (see :meth:`draw`), written
        into per-instance buffers reused across epochs, so emitting float64
        here kills the per-epoch ``astype`` churn at the source.  Callers
        must finish with an epoch's arrays before requesting the next epoch.
        """
        self.draw(epoch, self._countsf, self._writesf)
        return self._countsf, self._writesf
