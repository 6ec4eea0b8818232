"""Per-request reference paths for the service runtime (test oracle only).

:func:`epoch_service_reference` is the brute-force model: per-OSD,
per-request Python loops.  :func:`epoch_service_vectorized` performs the
same IEEE-754 operations in the same order over every accepted request
(``np.repeat`` + ``arange``), and :func:`reference_step` is the whole
per-epoch step built on it -- binning every latency with ``searchsorted``.
:func:`reference_block` steps a block's epochs through it one by one, so
whole ``simulate()`` runs can be driven through the per-request path
(``monkeypatch.setattr(ServiceRuntime, "on_block", reference_block)``) and
compared bit for bit with :meth:`edm.service.ServiceRuntime.on_block`,
which bins runs instead of requests and accounts a block of epochs at once.
"""

from __future__ import annotations

import numpy as np

from edm.service import LATENCY_EDGES
from edm.telemetry import EpochBlock

NUM_BINS = LATENCY_EDGES.size - 1


def epoch_service_vectorized(
    arrivals: np.ndarray, base: np.ndarray, rate: np.ndarray, qbound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One epoch of queue admission + FIFO latency, vectorized over requests.

    Returns ``(accepted, latencies, new_depth)``: per-OSD accepted counts,
    the flat float64 latency array of every accepted request (epoch order:
    OSD 0's requests first), and the post-service queue depths.
    """
    room = np.where(rate > 0, qbound + rate - base, 0.0)
    accepted = np.minimum(
        arrivals.astype(np.float64), np.maximum(np.floor(room), 0.0)
    ).astype(np.int64)
    total = int(accepted.sum())
    if total:
        starts = np.cumsum(accepted) - accepted
        offs = np.repeat(base, accepted)
        srep = np.repeat(rate, accepted)
        idx = np.arange(total, dtype=np.int64) - np.repeat(starts, accepted)
        work = offs + (idx + 1.0)
        lat = np.divide(work, srep, out=np.full(total, np.inf), where=srep > 0)
    else:
        lat = np.empty(0, dtype=np.float64)
    new_depth = np.maximum(base + accepted - rate, 0.0)
    return accepted, lat, new_depth


def epoch_service_reference(
    arrivals: np.ndarray, base: np.ndarray, rate: np.ndarray, qbound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force scalar twin of :func:`epoch_service_vectorized`."""
    n = arrivals.size
    accepted = np.zeros(n, dtype=np.int64)
    new_depth = np.zeros(n, dtype=np.float64)
    lats: list[float] = []
    for j in range(n):
        room_j = qbound + rate[j] - base[j] if rate[j] > 0 else 0.0
        cap = max(np.floor(room_j), 0.0)
        want = float(arrivals[j])
        accepted[j] = np.int64(min(want, cap))
        for i in range(int(accepted[j])):
            work = base[j] + (i + 1.0)
            lats.append(work / rate[j] if rate[j] > 0 else np.inf)
        new_depth[j] = max(base[j] + accepted[j] - rate[j], 0.0)
    return accepted, np.array(lats, dtype=np.float64), new_depth


def bin_latencies(lat: np.ndarray) -> np.ndarray:
    """Per-request histogram: top edge inclusive, overflow (and inf) last."""
    bins = np.clip(np.searchsorted(LATENCY_EDGES, lat, side="right") - 1, 0, NUM_BINS)
    # searchsorted(side="right") pushes a latency equal to the top edge
    # past it; fold it back into the last real bin.
    bins[(bins == NUM_BINS) & (lat <= LATENCY_EDGES[-1])] = NUM_BINS - 1
    return np.bincount(bins, minlength=NUM_BINS + 1)


def epoch_block(state, arrivals: np.ndarray, start: int = 0) -> EpochBlock:
    """Per-OSD ``arrivals`` rows ``(k, n)`` (or one row) as a block of
    epochs from ``start`` on ``state``'s alive set and capacities -- all
    the service runtime reads of a block."""
    rows = np.atleast_2d(arrivals)
    return EpochBlock(range(start, start + len(rows)), rows, None, None, None,
                      state.osd_alive, state.osd_capacity)


def reference_block(self, state, block) -> None:
    """Per-request, per-epoch drop-in for :meth:`ServiceRuntime.on_block`:
    steps the block's epochs one at a time on the live state, whose alive
    set and capacities are the block's."""
    for arrivals in block.load:
        reference_step(self, state, arrivals)


def reference_step(self, state, arrivals: np.ndarray) -> None:
    """One epoch, per request: accounts the epoch as it steps it."""
    depth = self.depth
    pending = self.backlog
    alive = state.osd_alive
    dead = ~alive
    if dead.any():
        self.lost_work += float(depth[dead].sum() + pending[dead].sum())
        depth[dead] = 0.0
        pending[dead] = 0.0
    inject = np.where(pending < 1.0, pending, pending * self._drain)
    pending -= inject
    mig_epoch = bool(inject.sum() > 0.0)

    base = depth + inject
    rate = self.rate * state.osd_capacity * alive
    accepted, lat, new_depth = epoch_service_vectorized(arrivals, base, rate, self.qbound)
    np.copyto(depth, new_depth)

    offered = int(arrivals.sum())
    self.requests_total += offered
    self.dropped_total += offered - int(accepted.sum())
    finite = np.isfinite(lat)
    n_finite = int(finite.sum())
    self.stalled_total += lat.size - n_finite
    lat_mean = 0.0
    if lat.size:
        self.hist += bin_latencies(lat)
    if n_finite:
        fin_sum = float(lat[finite].sum())
        self.lat_sum += fin_sum
        lat_mean = fin_sum / n_finite
        if mig_epoch:
            self._mig_lat_sum += fin_sum
            self._mig_lat_count += n_finite
            epoch_max = float(lat[finite].max())
            if not self.spike_lat_max >= epoch_max:
                self.spike_lat_max = epoch_max
        else:
            self._clean_lat_sum += fin_sum
            self._clean_lat_count += n_finite

    d_alive = depth[alive]
    if d_alive.size:
        d_mean = float(d_alive.mean())
        d_cov = float(d_alive.std() / d_mean) if d_mean > 0 else 0.0
        self._depth_max = max(self._depth_max, float(d_alive.max()))
    else:
        d_mean = 0.0
        d_cov = 0.0
    self._lat_means.append(lat_mean)
    self._depth_means.append(d_mean)
    self._depth_covs.append(d_cov)
