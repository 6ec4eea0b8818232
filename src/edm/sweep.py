"""Parallel sweep runner.

Fans a workload x osd x policy x seed grid across a ProcessPoolExecutor.
Cache lookups happen in the parent before any worker is spawned, so a fully
warm sweep never pays pool startup; only misses are submitted.  Each config
carries its own seed and derives its RNG streams from its content hash
(see edm.config.rng_seed_sequence), so results are identical regardless of
worker count or scheduling order.

Dispatch is ``submit``/``as_completed``.  With the cache on, each worker
stores its own full metrics into the ``.repro-cache`` layout and returns
only a slim summary record -- the handful of scalars the sweep table,
progress meter, and report need -- so the parent's memory is independent
of grid size, and an interrupted sweep (a poisoned config, a dead worker,
Ctrl-C between results) keeps every completed config's work: the next
sweep resumes from cache.  When any config fails, the remaining futures are
still drained before the first error is re-raised.  Without the cache, full
metrics cross the pool instead.

With ``timeseries_dir`` set, each worker additionally runs a
:class:`~edm.telemetry.TimeSeriesRecorder` and serializes its series to
``<timeseries_dir>/<cache_name>.npz`` *inside the worker*, so large grids
stream per-epoch series to disk instead of materializing them in the parent.
A config only counts as cached when both its metrics pickle and (when
requested) its ``.npz`` series exist.

With ``run_log`` set, the same worker-side streaming applies to
observability: each worker runs its config through :func:`logged_run`,
which appends ``run_start``/``run_end`` JSONL records (run id, config hash,
engine version, pid, wall time, span timings) and the run's fault,
topology, service and -- with ``trace`` -- span records to the log, and
the parent brackets them with ``sweep_start``/``sweep_end`` records
carrying cache counters and the parent-side stage spans (cache probe, pool
startup, result collection).  See :mod:`edm.obs.runlog` for the schema.

:meth:`SweepResult.iter_results` yields full metrics in input order,
re-loading them lazily from the cache one config at a time.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import logging

from edm.cache import DEFAULT_CACHE_DIR, ResultCache
from edm.config import POLICIES, SCENARIOS, WORKLOADS, SimConfig, config_hash, ENGINE_VERSION
from edm.engine.core import simulate
from edm.obs import (
    NULL_TRACER,
    ProgressLine,
    RunLogWriter,
    Tracer,
    configure_logging,
    get_logger,
    new_id,
)
from edm.obs.log import ROOT_LOGGER_NAME
from edm.telemetry import Recorder, TimeSeriesRecorder
from edm.topology import TOPOLOGY_KINDS

__all__ = ["SUMMARY_KEYS", "SweepResult", "default_grid", "logged_run", "series_path", "sweep"]

log = get_logger("sweep")

#: Scalar metrics carried by a cached sweep's slim summary records --
#: exactly what the sweep table, progress meter, and report-by-cache need.
SUMMARY_KEYS = (
    "total_requests",
    "load_cov_mean",
    "wear_spread",
    "migrations_total",
)


def _summarize(cfg: SimConfig, metrics: dict) -> dict:
    """Slim summary record for one config (what a cached sweep keeps)."""
    summary = {k: metrics[k] for k in SUMMARY_KEYS}
    summary["config"] = cfg.cache_name()
    summary["config_hash"] = config_hash(cfg)
    return summary


def default_grid(
    workloads=WORKLOADS,
    osds=(16, 20),
    policies=POLICIES,
    seeds=(12345, 54321),
    skew: float = 0.02,
    **overrides,
) -> list[SimConfig]:
    """The default evaluation grid: 4 workloads x {16,20} OSDs x the policy zoo x 2 seeds.

    A keyword named after a :data:`~edm.config.SCENARIOS` field
    (``faults=``, ..., ``redundancy=``) is an extra grid axis of that
    field's specs, in the table's order after the seeds; a missing one is
    the single empty spec (healthy, unrated, untimed, static, plain).  Any
    other keyword is a :class:`SimConfig` field set on every config.
    Restricting ``policies`` to the paper's four (as the ``paper-grid``
    benchmark does) recovers the paper's 64-config grid exactly.
    """
    axes = [overrides.pop(name, ("",)) for name in SCENARIOS]
    return [
        SimConfig(
            workload=w, num_osds=n, policy=p, seed=s, skew=skew,
            **dict(zip(SCENARIOS, specs)), **overrides,
        )
        for w, n, p, s, *specs in product(workloads, osds, policies, seeds, *axes)
    ]


def series_path(timeseries_dir: str | os.PathLike, cfg: SimConfig) -> Path:
    """Where a config's time series lands: ``<dir>/<cache_name>.npz``."""
    return Path(timeseries_dir) / f"{cfg.cache_name()}.npz"


class _FaultLogRecorder(Recorder):
    """Streams each fired fault or topology event into the run log through
    ``emit``, a :meth:`RunLogWriter.emit` bound to the run's identity."""

    def __init__(self, emit: Callable[..., dict]):
        self._emit = emit

    def on_event(self, state, event, moved: int) -> None:
        if event.kind in TOPOLOGY_KINDS:
            self._emit(
                "topology",
                kind=event.kind,
                epoch=int(event.epoch),
                count=int(event.count),
                osd=int(event.osd),
                moved=int(moved),
                osds_total=int(state.num_osds),
            )
        else:
            self._emit(
                "fault",
                kind=event.kind,
                osd=int(event.osd),
                epoch=int(state.epoch),
                factor=float(event.factor),
                replaced=int(moved),
            )


def logged_run(
    cfg: SimConfig,
    writer: RunLogWriter,
    run_id: str,
    trace: bool = False,
    recorders: tuple[Recorder, ...] = (),
) -> dict:
    """Simulate ``cfg`` inside one ``run_start`` / ``run_end`` bracket of the run log.

    ``edm run --run-log`` and every sweep worker with a run log call this.
    Between the two records, every fired fault, wear-out and topology event
    streams a ``fault`` / ``topology`` record, a serviced run writes one
    ``service`` record, and with ``trace`` every span occurrence of the run
    becomes a ``span`` record.  The run goes under a fresh tracer whose
    ``timings`` summary moves out of the returned metrics into ``run_end``,
    so the metrics equal an unlogged run's: cached metrics stay timing-free
    and therefore bit-identical across cold and warm sweeps.
    """
    ident = {"run_id": run_id, "config": cfg.cache_name()}
    emit = functools.partial(writer.emit, **ident)
    version = {"config_hash": config_hash(cfg), "engine_version": ENGINE_VERSION}
    emit("run_start", **version)
    if cfg.faults or cfg.endurance or cfg.topology:
        recorders = (*recorders, _FaultLogRecorder(emit))
    tracer = Tracer(record_events=trace)
    t0 = time.perf_counter()
    metrics = simulate(cfg, recorders=recorders, tracer=tracer)
    wall_s = time.perf_counter() - t0
    timings = metrics.pop("timings")
    if cfg.service:
        # One service record per serviced run: the tail-latency numbers an
        # operator would alert on, queryable without re-loading the metrics.
        emit(
            "service",
            lat_p50=float(metrics["service_lat_p50"]),
            lat_p99=float(metrics["service_lat_p99"]),
            lat_p999=float(metrics["service_lat_p999"]),
            requests=int(metrics["service_requests_total"]),
            dropped=int(metrics["service_dropped_total"]),
        )
    if trace:
        writer.emit_all("span", tracer.events(), **ident)
    emit(
        "run_end",
        **version,
        wall_s=wall_s,
        total_requests=metrics["total_requests"],
        requests_per_sec=metrics["total_requests"] / wall_s if wall_s > 0 else 0.0,
        timings=timings,
    )
    return metrics


@dataclass(frozen=True)
class _Task:
    """One worker unit (picklable; crosses the process boundary)."""

    cfg_dict: dict
    ts_dir: str | None
    record_every: int
    run_log: str | None
    sweep_id: str
    cache_dir: str | None = None  # set => store metrics here, return summary
    trace: bool = False  # set => the run log gains the run's span records
    # Parent's effective ``edm`` log level, re-applied inside the worker so
    # -v/--log-level reaches worker diagnostics under *any* multiprocessing
    # start method (spawn inherits nothing; fork inherits a handler bound to
    # the parent's stderr object, which configure() rebinds).
    log_level: int = logging.WARNING


def _run_config(task: _Task) -> dict:
    """Worker entry point (module-level for picklability).

    Writes the cache entry, the ``.npz`` series and the run-log records
    (through :func:`logged_run`) from inside the worker, so only a slim
    summary (or, uncached, the metrics dict) crosses the process boundary.
    """
    configure_logging(task.log_level)
    cfg = SimConfig.from_dict(task.cfg_dict)
    log.debug("worker pid %d: simulating %s", os.getpid(), cfg.cache_name())
    ts_recorder = None
    recorders: tuple[Recorder, ...] = ()
    if task.ts_dir is not None:
        ts_recorder = TimeSeriesRecorder(record_every=task.record_every)
        recorders = (ts_recorder,)
    if task.run_log is not None:
        writer = RunLogWriter(task.run_log, sweep_id=task.sweep_id)
        metrics = logged_run(cfg, writer, new_id(), task.trace, recorders)
    else:
        metrics = simulate(cfg, recorders=recorders)
    if ts_recorder is not None:
        ts_recorder.series.save_npz(series_path(task.ts_dir, cfg))
    if task.cache_dir is not None:
        ResultCache(task.cache_dir).store(cfg, metrics)
        return _summarize(cfg, metrics)
    return metrics


@dataclass
class SweepResult:
    """Completed sweep: one record per input config, in input order.

    :meth:`iter_results` is the one access path that always yields *full*
    metrics dicts -- new code should use it exclusively.  ``records`` holds
    slim summaries (:data:`SUMMARY_KEYS` plus identity fields) when the
    sweep used the cache, where the full metrics live, and full metrics
    dicts when it did not.
    """

    records: list[dict]
    cache_hits: int
    cache_misses: int
    cache_invalidated: int
    simulated: int
    timings: dict | None = None  # parent-side sweep.* span summary (None untraced)
    configs: tuple[SimConfig, ...] = ()  # input grid
    cache_dir: str | None = None  # where full metrics live (None: in records)

    def __post_init__(self) -> None:
        bad = [i for i, r in enumerate(self.records) if not isinstance(r, dict)]
        if bad:
            raise TypeError(
                f"SweepResult.records must be complete metrics dicts; "
                f"non-dict entries at indices {bad[:8]}"
            )

    @property
    def total_requests(self) -> int:
        return sum(r["total_requests"] for r in self.records)

    def iter_results(self):
        """Yield one *full* metrics dict per input config, in input order.

        Uncached, this is just ``iter(records)``.  Cached, each metrics dict
        is loaded from the cache on demand and dropped before the next is
        read, so walking a huge grid keeps memory bounded to a single
        config's metrics.
        """
        if self.cache_dir is None:
            yield from self.records
            return
        cache = ResultCache(self.cache_dir)
        for cfg in self.configs:
            metrics = cache.load(cfg)
            if metrics is None:
                raise RuntimeError(
                    f"sweep result for {cfg.cache_name()} missing from "
                    f"cache {self.cache_dir} (evicted or engine version changed?)"
                )
            yield metrics


def sweep(
    configs: list[SimConfig],
    cache_dir=DEFAULT_CACHE_DIR,
    workers: int | None = None,
    force: bool = False,
    timeseries_dir: str | os.PathLike | None = None,
    record_every: int = 1,
    run_log: str | os.PathLike | None = None,
    progress: bool = False,
    tracer: Tracer | None = None,
    trace: bool = False,
) -> SweepResult:
    """Run every config, returning results in the order given.

    ``cache_dir=None`` runs uncached: full metrics cross back in
    ``records`` and nothing is written.  ``force=True`` re-simulates even
    on a cache hit (and refreshes the cache).
    ``workers`` <= 1 runs inline with no pool; the default is the CPU count.
    ``timeseries_dir`` additionally writes one ``.npz`` per config (sampled
    every ``record_every`` epochs), re-simulating configs whose series file
    is missing even when their metrics are cached.
    ``run_log`` appends JSONL observability records (see module docstring).
    ``progress=True`` renders a live done/total + ETA + req/s line on stderr.
    ``tracer`` times the parent-side stages as ``sweep.*`` spans; a tracer is
    created implicitly when ``run_log`` is set so the ``sweep_end`` record
    always carries stage timings.  The summary lands on ``SweepResult.timings``.
    With the cache on, workers store full metrics and return slim
    summaries (see module docstring).
    ``trace=True`` adds every span *occurrence* -- parent sweep stages and
    worker simulate phases alike -- to the run log as ``span`` records,
    convertible to a Chrome/Perfetto timeline with ``edm trace export`` (see
    :mod:`edm.obs.trace_export`); it needs ``run_log``.  Note cached configs
    never re-simulate, so a warm sweep's timeline shows only the parent
    stages.
    """
    if trace and run_log is None:
        raise ValueError("sweep(trace=True) needs a run_log to write span records to")
    if tracer is not None:
        tr = tracer
    elif run_log is not None:
        tr = Tracer(record_events=trace)
    else:
        tr = NULL_TRACER
    sweep_id = new_id()
    writer = RunLogWriter(run_log, sweep_id=sweep_id) if run_log is not None else None
    t_start = time.perf_counter()

    cache_arg = str(cache_dir) if cache_dir is not None else None
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    ts_dir = Path(timeseries_dir) if timeseries_dir is not None else None
    slots: list[dict | None] = [None] * len(configs)
    pending: list[int] = []

    with tr.span("sweep.cache_probe"):
        for i, cfg in enumerate(configs):
            have_series = ts_dir is None or series_path(ts_dir, cfg).exists()
            if cache is not None and not force and have_series:
                hit = cache.load(cfg)
                if hit is not None:
                    # Keep only the summary; the full metrics stay on disk.
                    slots[i] = _summarize(cfg, hit)
                    continue
            pending.append(i)

    if writer is not None:
        writer.emit("sweep_start", configs=len(configs), pending=len(pending))
    log.info(
        "sweep %s: %d configs, %d cached, %d to simulate",
        sweep_id, len(configs), len(configs) - len(pending), len(pending),
    )

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(pending) or 1))

    meter = ProgressLine(total=len(pending), enabled=progress)
    first_error: BaseException | None = None

    def _land(i: int, record: dict) -> None:
        slots[i] = record
        meter.advance(record["total_requests"])

    if pending:
        ts_dir_arg = str(ts_dir) if ts_dir is not None else None
        run_log_arg = str(run_log) if run_log is not None else None
        level = logging.getLogger(ROOT_LOGGER_NAME).getEffectiveLevel()
        tasks = [
            _Task(
                configs[i].to_dict(), ts_dir_arg, record_every, run_log_arg,
                sweep_id, cache_arg, trace, level,
            )
            for i in pending
        ]
        try:
            if workers == 1:
                for i, task in zip(pending, tasks):
                    _land(i, _run_config(task))
            else:
                with tr.span("sweep.pool_startup"):
                    pool = ProcessPoolExecutor(max_workers=workers)
                    futures = {
                        pool.submit(_run_config, task): i for task, i in zip(tasks, pending)
                    }
                with tr.span("sweep.collect"), pool:
                    for fut in as_completed(futures):
                        i = futures[fut]
                        try:
                            _land(i, fut.result())
                        except BaseException as e:  # re-raised after the drain
                            if first_error is None:
                                first_error = e
                            log.warning("config %s failed: %s", configs[i].cache_name(), e)
        finally:
            meter.close()
        if first_error is not None:
            raise first_error

    result = SweepResult(
        records=slots,  # type: ignore[arg-type]  # __post_init__ proves completeness
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else len(pending),
        cache_invalidated=cache.invalidated if cache else 0,
        simulated=len(pending),
        timings=tr.summary() if tr.enabled else None,
        configs=tuple(configs),
        cache_dir=cache_arg,
    )
    if writer is not None:
        if trace:
            writer.emit_all("span", tr.events())
        writer.emit(
            "sweep_end",
            wall_s=time.perf_counter() - t_start,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            cache_invalidated=result.cache_invalidated,
            simulated=result.simulated,
            timings=result.timings or {},
        )
    return result
