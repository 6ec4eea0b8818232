"""Request-level service runtime: bounded queues, latency, migration spikes.

The engine is epoch-aggregate everywhere else: a request is a unit of load,
never a unit of time.  :class:`ServiceRuntime` gives each OSD a service rate
(requests retired per epoch, scaled by live capacity) and a bounded FIFO
queue, then steps an M/D/1-style Lindley recursion over the OSD axis once
per epoch:

    backlog' = max(backlog + injected_migration_work + accepted - rate, 0)

A request accepted as the ``i``-th arrival of its epoch sees sojourn time
``(backlog + injected + i + 1) / rate`` epochs -- deterministic FIFO service,
no per-request randomness.  Latencies accumulate into a fixed log-spaced
histogram, so p50/p99/p999 come from bin edges and are bit-stable across
runs and backends.

Migrations and fault re-placement bursts charge
``cfg.service_migration_cost`` request-equivalents per moved chunk into a
per-OSD pending pool (source and destination both pay -- a migration reads
one replica and writes another); the pool drains into the queues at
``1/cfg.service_cooldown_epochs`` per epoch, flushing outright once it falls
below one request.  That drain is what turns "migrate vs. tolerate
imbalance" into a visible latency tradeoff: epochs with in-flight migration
work report their own latency aggregate, and ``migration_spike_ratio``
compares it against clean epochs.

The step never bins requests one by one: each OSD's latencies form a
nondecreasing run, split only by the bin edges inside it (see
:func:`run_latencies`).  tests/service_reference.py keeps the per-request
step as the oracle this one is pinned to bit for bit.
"""

from __future__ import annotations

import numpy as np

from edm.service.spec import ServiceModel
from edm.telemetry.recorder import mean_std

__all__ = ["LATENCY_EDGES", "ServiceRuntime", "admit", "histogram_percentile", "run_latencies"]

# Fixed log-spaced latency bin edges (in epochs of service time): bin 0 is
# [0, 1e-4), then 256 log-spaced bins up to 1e4.  The histogram carries one
# extra slot past the last edge -- a dedicated overflow bin for anything
# slower than 1e4 epochs (including inf, a rate so small the division
# overflows).  Percentiles report the overflow bin as inf; a finite latency
# at or below the top edge always resolves to a real (finite-edged) bin.
LATENCY_EDGES = np.concatenate(([0.0], np.logspace(-4.0, 4.0, 257)))
_NUM_BINS = LATENCY_EDGES.size - 1
# Run splits: latency x sits at position searchsorted(_SPLITS, x, "right"),
# i.e. its bin, _NUM_BINS for overflow, _NUM_BINS + 1 for +inf.  The top
# edge is inclusive, so its split (like inf's) is the next float up.
_SPLITS = np.append(LATENCY_EDGES[1:-1], [np.nextafter(LATENCY_EDGES[-1], np.inf), np.inf])
# Each split over its finite stand-in, for estimating where runs cross it.
_SPLIT_TABLE = np.stack((_SPLITS, np.minimum(_SPLITS, np.finfo(np.float64).max)))


def histogram_percentile(hist: np.ndarray, q: float) -> float:
    """Percentile from a latency histogram: lower edge of the covering bin.

    Returns NaN for an empty histogram (a run that never accepted a request
    -- e.g. zero-request epochs throughout, or an all-dead cluster) and inf
    only when the percentile falls in the dedicated overflow slot past the
    last edge (``hist`` has ``_NUM_BINS + 1`` entries).  Both guards are
    explicit Python branches, so no RuntimeWarning escapes under
    ``-W error``.
    """
    total = int(hist.sum())
    if total == 0:
        return float("nan")
    target = q * total
    idx = int(np.searchsorted(np.cumsum(hist), target, side="left"))
    if idx >= _NUM_BINS:
        return float("inf")
    return float(LATENCY_EDGES[idx])


def admit(
    arrivals: np.ndarray, base: np.ndarray, rate: np.ndarray, qbound: float
) -> tuple[np.ndarray, np.ndarray]:
    """One epoch of queue admission: ``(accepted, new_depth)`` per OSD.

    ``arrivals`` are integer-valued per-OSD request counts, ``base`` the
    backlog each queue starts the epoch with (carried depth + injected
    migration work), ``rate`` the effective service rate (0 for dead OSDs).
    A queue has room for its bound plus one epoch of service beyond the
    standing backlog; dead OSDs admit nothing.
    """
    room = np.where(rate > 0, qbound + rate - base, 0.0)
    accepted = np.minimum(arrivals, np.maximum(np.floor(room), 0.0)).astype(np.int64)
    return accepted, np.maximum(base + accepted - rate, 0.0)


def run_latencies(
    accepted: np.ndarray, base: np.ndarray, rate: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latency histogram of one epoch's accepted requests, binned run by run.

    The ``i``-th request OSD ``j`` accepts waits
    ``fl(fl(base[j] + (i + 1.0)) / rate[j])`` epochs, nondecreasing in
    ``i``.  Returns ``(hist, lat, tails)``: the histogram increment
    (overflow slot included, +inf counted there), every finite latency in
    epoch order (OSD 0's requests first), and each run's last finite
    latency.  Needs at least one accepted request.
    """
    busy = accepted > 0
    a, b, r = accepted[busy], base[busy], rate[busy]
    # ``i + 1.0`` is exact, so the last request's (a - 1) + 1.0 is just a.
    tails = (b + a) / r
    first = _SPLITS.searchsorted((b + 1.0) / r, "right")
    span = _SPLITS.searchsorted(tails, "right") - first
    # One cell per (run, split strictly inside it).
    split = np.arange(span.sum()) + (first - (span.cumsum() - span)).repeat(span)
    bc, rc, ac = b.repeat(span), r.repeat(span), a.repeat(span)
    thr, est = _SPLIT_TABLE.take(split, axis=1)
    # Requests below the split, estimated from the closed form, then fixed
    # up by evaluating the very float expression on both sides of it.  The
    # expression is monotone in i, so this converges on the exact count.
    below = np.ceil(est * rc - bc - 1.0)
    while True:
        up = (bc + (below + 1.0)) / rc < thr  # request ``below`` is below too
        down = (bc + below) / rc >= thr  # request ``below - 1`` is not
        if not (np.count_nonzero(up) or np.count_nonzero(down)):
            break
        below += up
        below -= down
    # Each run lands whole at its first position; each split moves the
    # requests at or past it one position on.
    past = ac - below
    counts = np.bincount(
        np.concatenate((first, split + 1)), np.concatenate((a, past)), _NUM_BINS + 2
    ) - np.bincount(split, past, _NUM_BINS + 2)
    counts = counts.astype(np.int64)
    fin = a
    if counts[-1]:
        # Runs reaching +inf (a rate so small the division overflows) keep
        # only their finite prefix.
        fin = np.where(first > _NUM_BINS, 0, a)
        at_inf = split == _NUM_BINS
        fin[np.arange(a.size).repeat(span)[at_inf]] = below[at_inf]
        tails = ((b + fin) / r)[fin > 0]
        counts[-2] += counts[-1]
    # Materialized only for the sum, which must be numpy's pairwise sum
    # over every finite latency, bit for bit.
    stop = fin.cumsum()
    ramp = np.arange(1.0, stop[-1] + 1.0) - (stop - fin).repeat(fin)  # i + 1.0
    lat = (b.repeat(fin) + ramp) / r.repeat(fin)
    return counts[:-1], lat, tails


class ServiceRuntime:
    """Per-run queue state-stepper and latency accumulator.

    Owns the latency histogram and the run-level service aggregates; the
    per-OSD queue arrays (``osd_queue_depth``, ``osd_service_rate``,
    ``osd_mig_backlog``) live on :class:`~edm.engine.state.ClusterState` so
    recorders and policies can observe them like any other state.
    """

    def __init__(self, model: ServiceModel, cfg) -> None:
        self.model = model
        self.qbound = model.queue_bound
        self._drain = 1.0 / float(cfg.service_cooldown_epochs)
        self._rates = model.per_osd(cfg.num_osds)
        # Run-level accumulators.  The histogram has one slot per real bin
        # plus a trailing overflow slot for latencies past the last edge.
        self.hist = np.zeros(_NUM_BINS + 1, dtype=np.int64)
        self.lat_sum = 0.0
        self.lat_count = 0
        self.stalled_total = 0
        self.requests_total = 0
        self.dropped_total = 0
        self.lost_work = 0.0
        self.spike_lat_max = float("nan")
        self._mig_lat_sum = 0.0
        self._mig_lat_count = 0
        self._clean_lat_sum = 0.0
        self._clean_lat_count = 0
        self._depth_mean_sum = 0.0
        self._depth_cov_sum = 0.0
        self._depth_max = 0.0
        self._epochs = 0

    def attach(self, state) -> None:
        """Install the model's rates on the cluster state."""
        state.osd_service_rate = self._rates.astype(np.float64).copy()

    def step(self, state, arrivals: np.ndarray, stats=None) -> None:
        """Advance every queue by one epoch and accumulate latency stats.

        ``arrivals`` is the per-OSD request-count vector the kernel routed
        this epoch (integer-valued float64).  Fills ``stats`` (an
        :class:`~edm.telemetry.recorder.EpochStats`) with this epoch's
        latency mean and queue-depth aggregates when provided.
        """
        depth = state.osd_queue_depth
        pending = state.osd_mig_backlog
        alive = state.osd_alive
        dead = ~alive
        if dead.any():
            # A dead OSD's backlog is lost, not served: account and zero it
            # so corpse queues never leak into depth statistics.
            self.lost_work += float(depth[dead].sum() + pending[dead].sum())
            depth[dead] = 0.0
            pending[dead] = 0.0
        # Drain pending migration work into the queues: a cooldown-sized
        # fraction per epoch, flushed outright once below one request.
        inject = np.where(pending < 1.0, pending, pending * self._drain)
        pending -= inject
        mig_epoch = bool(inject.sum() > 0.0)

        base = depth + inject
        rate = state.osd_service_rate * state.osd_capacity * alive
        accepted, new_depth = admit(arrivals, base, rate, self.qbound)
        np.copyto(depth, new_depth)

        offered = int(arrivals.sum())
        served = int(accepted.sum())
        self.requests_total += offered
        self.dropped_total += offered - served
        lat_mean = 0.0
        if served:
            hist, lat, tails = run_latencies(accepted, base, rate)
            self.hist += hist
            self.stalled_total += served - lat.size
            if lat.size:
                fin_sum = float(lat.sum())
                self.lat_sum += fin_sum
                self.lat_count += lat.size
                lat_mean = fin_sum / lat.size
                if mig_epoch:
                    self._mig_lat_sum += fin_sum
                    self._mig_lat_count += lat.size
                    epoch_max = float(tails.max())
                    if not self.spike_lat_max >= epoch_max:
                        self.spike_lat_max = epoch_max
                else:
                    self._clean_lat_sum += fin_sum
                    self._clean_lat_count += lat.size

        # Queue-depth aggregates over *alive* OSDs only.  Dead queues were
        # zeroed above; leaving them in would dilute the survivors' mean
        # with permanent zeros and inflate the CoV for the rest of the run
        # -- the same survivor-masking convention the load CoV uses.
        d_alive = depth[alive]
        if d_alive.size:
            d_mean, d_std = mean_std(d_alive)
            d_mean = float(d_mean)
            d_cov = float(d_std / d_mean) if d_mean > 0 else 0.0
            self._depth_max = max(self._depth_max, float(d_alive.max()))
        else:
            d_mean = 0.0
            d_cov = 0.0
        self._depth_mean_sum += d_mean
        self._depth_cov_sum += d_cov
        self._epochs += 1
        if stats is not None:
            stats.lat_mean = lat_mean
            stats.queue_depth_mean = d_mean
            stats.queue_depth_cov = d_cov

    def metrics_block(self) -> dict:
        """Run-level service metrics, merged into ``simulate``'s dict."""
        lat_mean = self.lat_sum / self.lat_count if self.lat_count else float("nan")
        mig_mean = (
            self._mig_lat_sum / self._mig_lat_count
            if self._mig_lat_count
            else float("nan")
        )
        clean_mean = (
            self._clean_lat_sum / self._clean_lat_count
            if self._clean_lat_count
            else float("nan")
        )
        if self._mig_lat_count and self._clean_lat_count and clean_mean > 0:
            spike_ratio = mig_mean / clean_mean
        else:
            spike_ratio = float("nan")
        epochs = self._epochs
        return {
            "service": self.model.spec,
            "service_lat_p50": histogram_percentile(self.hist, 0.50),
            "service_lat_p99": histogram_percentile(self.hist, 0.99),
            "service_lat_p999": histogram_percentile(self.hist, 0.999),
            "service_lat_mean": lat_mean,
            "service_requests_total": self.requests_total,
            "service_dropped_total": self.dropped_total,
            "service_stalled_total": self.stalled_total,
            "service_lost_work": self.lost_work,
            "migration_spike_ratio": spike_ratio,
            "migration_spike_lat_max": self.spike_lat_max,
            "queue_depth_mean": self._depth_mean_sum / epochs if epochs else 0.0,
            "queue_depth_max": self._depth_max,
            "queue_depth_cov_mean": self._depth_cov_sum / epochs if epochs else 0.0,
        }

