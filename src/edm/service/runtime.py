"""Request-level service runtime: admission-bounded queues, latency, migration spikes.

The engine is epoch-aggregate everywhere else: a request is a unit of load,
never a unit of time.  :class:`ServiceRuntime` gives each OSD a service rate
(requests retired per epoch, scaled by live capacity) and a FIFO queue
whose optional bound limits admission -- injected migration work is never
capped, so depth can exceed the bound -- then steps an M/D/1-style Lindley
recursion over the OSD axis once per epoch:

    backlog' = max(backlog + injected_migration_work + accepted - rate, 0)

A request accepted as the ``i``-th arrival of its epoch sees sojourn time
``(backlog + injected + i + 1) / rate`` epochs -- deterministic FIFO service,
no per-request randomness.  Latencies accumulate into a fixed log-spaced
histogram, so p50/p99/p999 come from bin edges and are bit-stable across
runs and backends.

Every batch of moves reaches :meth:`ServiceRuntime.on_move`, which charges
``cfg.service_migration_cost`` request-equivalents per moved chunk into a
per-OSD pending pool (source and destination both pay -- a migration reads
one replica and writes another; a dead source pays nothing, and on a
redundant cluster the peers that rebuild its chunks pay for the reads
first); the pool drains into the queues at
``1/cfg.service_cooldown_epochs`` per epoch, flushing outright once it falls
below one request.  That drain is what turns "migrate vs. tolerate
imbalance" into a visible latency tradeoff: epochs with in-flight migration
work report their own latency aggregate, and ``migration_spike_ratio``
compares it against clean epochs.

The step keeps per epoch only what the next epoch reads: corpse booking,
the pending drain and admission (:func:`admit`).  Each epoch's accepted
counts, base, rate and post-service depth wait in a block of
``EPOCH_BLOCK`` epochs; a flush -- when the block fills, before any read
(``hist``, :meth:`ServiceRuntime.epoch_series`, ``metrics_block``), and
whenever the alive set or the cluster width changes -- builds the block's
latencies in one pass, sums each epoch's own slice, reduces the depth
aggregates row-wise and folds every running sum in epoch order.  Requests
are never binned one by one: each OSD's latencies form a nondecreasing
run, split only by the bin edges inside it (see :func:`bin_runs`), and runs
wait for a block of ``RUN_BLOCK`` to be binned.
tests/service_reference.py keeps the per-request, per-epoch step as the
oracle this one is pinned to bit for bit.
"""

from __future__ import annotations

import numpy as np

from edm.redundancy import rebuild_reads
from edm.service.spec import ServiceModel
from edm.telemetry.recorder import Recorder, mean_std

__all__ = ["LATENCY_EDGES", "ServiceRuntime", "admit", "bin_runs", "histogram_percentile",
           "run_latencies"]

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
# 1.0, 2.0, ...: each run's ``i + 1.0`` is a slice; grown, never rewritten.
_RAMP = np.arange(1.0, 1025.0)
# Runs buffered between binnings: ~6 epochs of a 20-OSD run share one pass of
# bin_runs.  512 grew peak RSS by 2 MB (the split arrays); 32 lost the gain.
RUN_BLOCK = 128
# Epochs stepped between accounting flushes.  A flush holds every latency
# the block accepted at once: up to ~64K floats for 8 epochs of the 20-OSD,
# 8192-request composed bench run, +1.4 MB (3%) peak RSS.  64 epochs grew
# it by 12 MB and were no faster.
EPOCH_BLOCK = 8


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
    idx = int(np.searchsorted(np.cumsum(hist), q * total, side="left"))
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
    standing backlog; dead OSDs admit nothing.  The bound limits admission
    only: uncapped migration work can push ``base`` past it.  The room is
    clipped at zero, so the cast truncates it exactly as ``floor`` would.
    """
    room = np.where(rate > 0, qbound + rate - base, 0.0)
    accepted = np.minimum(arrivals, np.maximum(room, 0.0)).astype(np.int64)
    return accepted, np.maximum(base + accepted - rate, 0.0)


def run_latencies(
    accepted: np.ndarray, base: np.ndarray, rate: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """One epoch's accepted requests as runs, and all their latencies.

    The ``i``-th request OSD ``j`` accepts waits
    ``fl(fl(base[j] + (i + 1.0)) / rate[j])`` epochs, nondecreasing in
    ``i``.  Returns ``(runs, lat)``: each busy OSD's ``(a, b, r, head,
    tail)`` -- accepted count, base, rate, first and last latency, as
    :func:`bin_runs` takes them -- and every latency in epoch order, +inf
    included.  Needs at least one accepted request.
    """
    global _RAMP
    busy = accepted > 0
    a, b, r = accepted[busy], base[busy], rate[busy]
    stop, ks = a.cumsum(), a.tolist()
    if _RAMP.size < max(ks):
        _RAMP = np.arange(1.0, 2.0 * max(ks) + 1.0)
    lat = np.concatenate([_RAMP[:k] for k in ks])  # i + 1.0, exact
    lat += b.repeat(a)
    lat /= r.repeat(a)
    return (a, b, r, lat[stop - a], lat[stop - 1]), lat


def bin_runs(
    a: np.ndarray, b: np.ndarray, r: np.ndarray, head: np.ndarray, tail: np.ndarray
) -> np.ndarray:
    """Histogram increment of the runs :func:`run_latencies` describes (any
    number of epochs' worth), +inf counted in the overflow slot."""
    first = _SPLITS.searchsorted(head, "right")
    last = _SPLITS.searchsorted(tail, "right")
    span = last - first
    # One cell per (run, split strictly inside it).
    split = np.arange(np.add.reduce(span)) + (first - (span.cumsum() - span)).repeat(span)
    bc, rc = b.repeat(span), r.repeat(span)
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
    # A run puts ``below[s] - below[s - 1]`` requests at each position s
    # from its first (where ``below[s - 1]`` is 0) to its last (where
    # ``below[s]`` is all ``a`` of them); weights are exact integers.
    below_at = np.bincount(split, below, _NUM_BINS + 2)
    counts = np.bincount(last, a, _NUM_BINS + 2) + below_at
    counts[1:] -= below_at[:-1]
    counts = counts.astype(np.int64)
    counts[-2] += counts[-1]
    return counts[:-1]


class ServiceRuntime(Recorder):
    """Per-run queue state-stepper and latency accumulator, as a recorder.

    Owns the per-OSD ``rate`` (requests per epoch at full capacity),
    ``depth`` and ``backlog`` (pending migration work) arrays, the latency
    histogram, the run-level aggregates and three per-epoch series.  ``cfg``
    supplies the migration cost and cooldown; the run supplies the cluster.
    No decision reads a queue, so more runtimes can ride a run as
    ``recorders`` (stepped by :meth:`on_epoch`), each reporting its own
    config's block.
    """

    def __init__(self, model: ServiceModel, cfg) -> None:
        self.model = model
        self.qbound = model.queue_bound
        self._drain = 1.0 / float(cfg.service_cooldown_epochs)
        self._cost = cfg.service_migration_cost
        # Run-level accumulators.  The histogram has one slot per real bin
        # plus a trailing overflow slot; runs wait in ``_runs`` to be binned.
        self._hist = np.zeros(_NUM_BINS + 1, dtype=np.int64)
        self._runs: list[tuple[np.ndarray, ...]] = []
        self._buffered = 0
        self._dead = 0
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
        # Per-epoch series, one value per stepped epoch (see epoch_series).
        self._lat_means: list[float] = []
        self._depth_means: list[float] = []
        self._depth_covs: list[float] = []
        # The block of epochs stepped since the last flush: per-OSD rows of
        # accepted counts, base, rate and post-service depth, plus each
        # epoch's offered count and migration flag.  The rows share one
        # width and one alive set; a change of either flushes first.
        self._rows = np.empty((3, 0, 0))
        self._accepted = np.empty((0, 0), dtype=np.int64)
        self._offered: list[int] = []
        self._mig: list[bool] = []
        self._alive_idx = np.empty(0, dtype=np.intp)

    @property
    def hist(self) -> np.ndarray:
        """The run's latency histogram, every stepped epoch binned into it."""
        self._flush()
        self._bin_buffered()
        return self._hist

    def _bin_buffered(self) -> None:
        if self._runs:
            self._hist += bin_runs(*map(np.concatenate, zip(*self._runs)))
            self._runs.clear()
            self._buffered = 0

    def epoch_series(self) -> dict[str, np.ndarray]:
        """Per-epoch mean finite latency (0.0 for an epoch that served none)
        and alive-masked queue-depth mean and CoV, one value per stepped
        epoch, keyed by their :class:`~edm.telemetry.TimeSeries` columns."""
        self._flush()
        return {
            "queue_depth_mean": np.array(self._depth_means),
            "queue_depth_cov": np.array(self._depth_covs),
            "service_lat_mean": np.array(self._lat_means),
        }

    def on_run_start(self, cfg, state) -> None:
        """Give every OSD the model's rate and an empty queue."""
        n = state.num_osds
        self.rate = self.model.per_osd(n).astype(np.float64)
        self.depth = np.zeros(n)
        self.backlog = np.zeros(n)
        scheme = cfg.plans["redundancy"]
        self._reads_per_loss = scheme.reads_per_loss if scheme else 0

    def on_topology(self, state, event, moved: int) -> None:
        """Give added drives their class's rate (else the model's default);
        discard a drained OSD's queue and pending work, not as lost work."""
        if event.kind == "add":
            rate = event.rate if event.rate is not None else self.model.default
            rate = np.inf if rate is None else rate
            self.rate = np.append(self.rate, np.full(event.count, rate))
            self.depth = np.append(self.depth, np.zeros(event.count))
            self.backlog = np.append(self.backlog, np.zeros(event.count))
        else:
            self.depth[event.osd] = 0.0
            self.backlog[event.osd] = 0.0

    def on_move(self, state, chunks, src, dst, trigger) -> None:
        """Charge the moves' work into the pending pool: the reads that
        rebuild chunks off a dead OSD (:func:`~edm.redundancy.rebuild_reads`)
        first, then both ends of each copy, where a dead source has no
        queue to occupy."""
        n = state.num_osds
        live = state.osd_alive[src]
        if self._reads_per_loss and not live.all():
            sources = rebuild_reads(state, chunks[~live], self._reads_per_loss)[0]
            read_work = np.bincount(sources, minlength=n).astype(np.float64)
            if read_work.any():
                self.backlog += read_work * self._cost
        work = np.bincount(dst, minlength=n).astype(np.float64)
        if live.any():
            work += np.bincount(src[live], minlength=n)
        self.backlog += work * self._cost

    def on_epoch(self, state, load: np.ndarray, stats) -> None:
        """Step on the epoch's routed load, when riding a run as a recorder."""
        self.step(state, load)

    def step(self, state, arrivals: np.ndarray) -> None:
        """Advance every queue by one epoch.

        ``arrivals`` is the per-OSD request-count vector the kernel routed
        this epoch (integer-valued float64).  Only what the next epoch reads
        happens here -- corpse booking, the pending drain and admission;
        the epoch's rows wait in a block of ``EPOCH_BLOCK`` for
        :meth:`_flush` to account them.
        """
        depth = self.depth
        pending = self.backlog
        alive = state.osd_alive
        n = alive.size
        dead = n - np.count_nonzero(alive)
        if dead != self._dead or n != self._accepted.shape[1]:
            # The block's rows were stepped on the old alive set or width.
            self._flush()
            self._alive_idx = np.flatnonzero(alive)
            if n != self._accepted.shape[1]:
                self._rows = np.empty((3, EPOCH_BLOCK, n))
                self._accepted = np.empty((EPOCH_BLOCK, n), dtype=np.int64)
        if dead != self._dead:
            # A dead OSD's backlog is lost, not served: account and zero it
            # so corpse queues never leak into depth statistics.  Once per
            # death: OSDs never revive, nothing charges a corpse (validate).
            self._dead = dead
            dead = ~alive
            self.lost_work += float(np.add.reduce(depth[dead]) + np.add.reduce(pending[dead]))
            depth[dead] = 0.0
            pending[dead] = 0.0
        # Drain pending migration work into the queues: a cooldown-sized
        # fraction per epoch, flushed outright once below one request.
        inject = np.where(pending < 1.0, pending, pending * self._drain)
        pending -= inject
        f = len(self._offered)
        self._mig.append(bool(np.add.reduce(inject) > 0.0))
        self._offered.append(int(np.add.reduce(arrivals)))

        base, rate, depth_row = self._rows[:, f]
        np.add(depth, inject, out=base)
        np.multiply(self.rate, state.osd_capacity, out=rate)
        np.multiply(rate, alive, out=rate)
        accepted, new_depth = admit(arrivals, base, rate, self.qbound)
        np.copyto(depth, new_depth)
        self._accepted[f] = accepted
        depth_row[:] = new_depth
        if f + 1 == len(self._accepted):
            self._flush()

    def _flush(self) -> None:
        """Account the buffered block of epochs, in epoch order.

        Builds the block's latencies in one pass (row-major: the runs come
        in the order the epochs stepped them) and sums each epoch's own
        slice, so every running sum gets the additions, in the order, a
        per-epoch step would make.
        """
        k = len(self._offered)
        if not k:
            return
        accepted = self._accepted[:k]
        base, rate, depth = self._rows[:, :k]
        served = np.add.reduce(accepted, axis=1).tolist()
        offered = sum(self._offered)
        self.requests_total += offered
        self.dropped_total += offered - sum(served)
        if any(served):
            # Binned later, a block of runs at a time (see ``hist``).
            runs, lat = run_latencies(accepted.ravel(), base.ravel(), rate.ravel())
            self._runs.append(runs)
            self._buffered += runs[0].size
            if self._buffered >= RUN_BLOCK:
                self._bin_buffered()
            # Each serving epoch's slowest request: the max of its run tails.
            per_epoch = np.count_nonzero(accepted, axis=1)
            firsts = (np.cumsum(per_epoch) - per_epoch)[per_epoch > 0]
            tops = np.maximum.reduceat(runs[-1], firsts).tolist()
        # Queue-depth aggregates over *alive* OSDs only.  Dead queues were
        # zeroed at death; leaving them in would dilute the survivors' mean
        # with permanent zeros and inflate the CoV for the rest of the run
        # -- the same survivor-masking convention the load CoV uses.  take
        # keeps the block C-contiguous, so each row reduces as one vector.
        idx = self._alive_idx
        if idx.size:
            d_alive = depth.take(idx, axis=1)
            d_mean, d_std = mean_std(d_alive)
            d_cov = np.divide(d_std, d_mean, out=np.zeros(k), where=d_mean > 0)
            d_max = np.maximum.reduce(d_alive, axis=1).tolist()
            d_mean, d_cov = d_mean.tolist(), d_cov.tolist()
        else:
            d_mean = d_cov = [0.0] * k
            d_max = []
        # Python's max, row by row: a NaN row is passed over, as per epoch.
        self._depth_max = max([self._depth_max, *d_max])
        for dm, dc in zip(d_mean, d_cov):
            self._depth_mean_sum += dm
            self._depth_cov_sum += dc
        self._depth_means += d_mean
        self._depth_covs += d_cov

        stop = j = 0
        for count, mig_epoch in zip(served, self._mig):
            lat_mean = 0.0
            if count:
                start, stop = stop, stop + count
                epoch_lat = lat[start:stop]
                top = tops[j]
                j += 1
                if not top < np.inf:
                    # Runs reaching +inf (a rate so small the division
                    # overflows): only their finite latencies count.
                    epoch_lat = epoch_lat[epoch_lat < np.inf]
                    top = float(np.maximum.reduce(epoch_lat, initial=0.0))
                self.stalled_total += count - epoch_lat.size
                if epoch_lat.size:
                    # The sum numpy's ``epoch_lat.sum()`` gives, bit for bit.
                    fin_sum = float(np.add.reduce(epoch_lat))
                    self.lat_sum += fin_sum
                    self.lat_count += epoch_lat.size
                    lat_mean = fin_sum / epoch_lat.size
                    if mig_epoch:
                        self._mig_lat_sum += fin_sum
                        self._mig_lat_count += epoch_lat.size
                        if not self.spike_lat_max >= top:
                            self.spike_lat_max = top
                    else:
                        self._clean_lat_sum += fin_sum
                        self._clean_lat_count += epoch_lat.size
            self._lat_means.append(lat_mean)
        self._epochs += k
        self._offered.clear()
        self._mig.clear()

    def metrics_block(self) -> dict:
        """Run-level service metrics, merged into ``simulate``'s dict."""
        self._flush()
        nan = float("nan")
        lat_mean = self.lat_sum / self.lat_count if self.lat_count else nan
        mig_mean = self._mig_lat_sum / self._mig_lat_count if self._mig_lat_count else nan
        clean = self._clean_lat_sum / self._clean_lat_count if self._clean_lat_count else nan
        spike_ratio = mig_mean / clean if clean > 0 else nan  # NaN without either kind
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

    def validate(self, state) -> None:
        """Queue invariants: one entry per OSD, no negative or NaN work, none
        held by a dead OSD (the step books it as lost, once), positive rates."""
        for name in ("rate", "depth", "backlog"):
            if getattr(self, name).shape != (state.num_osds,):
                raise AssertionError(f"service {name} width drifted from num_osds")
            if name != "rate" and not (getattr(self, name) >= 0).all():  # NaN fails too
                raise AssertionError(f"service {name} went negative or NaN")
        if (self.depth + self.backlog)[~state.osd_alive].any():
            raise AssertionError("dead OSD holds queued or pending service work")
        if (self.rate <= 0).any():
            raise AssertionError("service rate contains non-positive rates")

    def finalize(self, state, final_load: np.ndarray) -> dict:
        """Check the queue invariants; return :meth:`metrics_block`."""
        self.validate(state)
        return self.metrics_block()
