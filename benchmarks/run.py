#!/usr/bin/env python3
"""Layered, scenario-aware benchmark of the EDM simulator.

Run from the repository root::

    python3 benchmarks/run.py                                  # all workloads, both passes
    python3 benchmarks/run.py --workload composed --seed 7 --seconds 15 --trace 0
    python3 benchmarks/run.py --out results/run-01.json        # full record for compare.py

Each workload runs in a fresh child interpreter with the OpenMP, OpenBLAS
and MKL thread pools pinned to one thread.  The child is a closed loop: one
untimed warm-up repetition, then repetitions back to back until
``--seconds`` have passed (at least three; ``--quick`` runs only three),
each timed with ``perf_counter`` around the whole ``simulate()`` /
``sweep()`` call.  Every repetition's simulated metrics are checked (see
``digests.json``).

``--trace 0`` reports the end-to-end metrics: configured requests simulated
per reference second and set-up time (median over fresh interpreters) in
reference seconds, both host time corrected by a calibration slice timed
around each measurement (see :func:`calibrate`), and the peak RSS of the
warm-up.  It also prints the uncorrected host-time readings.
``--trace 1`` reports the per-layer metrics: after the same untimed loop,
three repetitions run under an ``edm.obs.Tracer`` and :mod:`layers` splits
their time by layer.  Without ``--trace`` both passes run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

from compare import quartiles
from layers import (
    LAYER_METRICS, Probe, layer_metrics, merge_summaries, patched, probed_simulate, resolve,
    self_times, unit_of,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("paper-grid", "scale-2000", "degraded-ec", "composed")
DEFAULT_SEED = 12345
DEFAULT_SECONDS = 15
MIN_REPS = 3
TRACED_REPS = 3
SETUP_LAUNCHES = 11
QUICK_SETUP_LAUNCHES = 3
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PAPER_POLICIES = ("baseline", "cdf", "hdf", "cmt")
# 40 failures, one every 6 epochs from epoch 8, every 5th OSD.
EC_FAULTS = ";".join(f"fail:{osd}@{8 + 6 * i}" for i, osd in enumerate(range(1, 200, 5)))
SINGLE = {
    # 2000 OSDs at the paper's per-OSD load: per-chunk arrays (~1 MB each)
    # outgrow L2, unlike every 20-OSD workload.
    "scale-2000": dict(
        workload="deasna2", num_osds=2000, policy="cmt", epochs=128, requests_per_epoch=819_200,
    ),
    # Group-constrained, per-chunk re-placement charged as reconstruction.
    "degraded-ec": dict(
        workload="lair62", num_osds=200, policy="cmt", epochs=320,
        redundancy="ec:4+2", endurance="pe:40000", faults=EC_FAULTS,
    ),
    # Every layer at once; its failure, wear-outs and drain take the
    # non-redundant batched re-placement path.
    "composed": dict(
        workload="deasna2", num_osds=20, policy="cmt", epochs=1024,
        service="rate:700;queue:64", topology="add:4@256/cap:2,rate:1600;drain:2@512",
        endurance="pe:200000", faults="fail:3@128;slow:5@64x0.5",
    ),
}
# Workloads that attach a full-rate TimeSeriesRecorder.
RECORDED = ("composed",)
# --quick: the same scenarios at a size that runs in well under a second.
QUICK = {
    "paper-grid": dict(epochs=32, requests_per_epoch=1024),
    "scale-2000": dict(num_osds=200, epochs=16, requests_per_epoch=81_920),
    "degraded-ec": dict(requests_per_epoch=1024),
    "composed": dict(requests_per_epoch=1024),
}
# Simulated outputs every repetition must have finite and >= 0.
CHECKED_KEYS = ("total_requests", "load_cov_mean", "wear_spread", "migrations_total")
SHOWN_KEYS = CHECKED_KEYS + (
    "fault_failures", "wearouts_total", "reconstruction_reads_total", "data_loss_chunks_total",
    "drain_moves_total", "service_lat_p99", "service_dropped_total",
)
# The gated metrics, then the uncorrected host-time readings printed beside them.
E2E_UNITS = {
    "sim_req_per_ref_s": "req/ref-s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_req_per_s": "req/s", "setup_host_s": "s", "failed_frac": "fraction",
}
# The calibration slice's time on the reference host (README, Baseline):
# there, one reference second is one host second when the host is quiet.
CAL_REF_S = 0.05
# Slices timed after each repetition: about a fifth of its wall time on the
# reference host.  Fewer slices left the slice time noisier than the host's
# drift that it corrects.
CAL_SLICES = {"paper-grid": 8, "scale-2000": 8, "degraded-ec": 2, "composed": 4}
# Slices timed in each set-up probe, after its set-up.
SETUP_CAL_SLICES = 2
# How strongly each workload's host time follows the slice's, fitted on
# runs of the reference host as the README's Reference seconds section
# says.  scale-2000, which streams arrays larger than L2, follows it less
# than one to one; the re-placement and service loops of degraded-ec and
# composed follow it more.
CAL_SENSITIVITY = {"paper-grid": 1.0, "scale-2000": 0.7, "degraded-ec": 1.2, "composed": 1.2}


def build_configs(name: str, seed: int, quick: bool = False) -> list:
    """The workload's SimConfigs; constructing them validates and parses the specs."""
    from edm import SimConfig, default_grid

    size = QUICK[name] if quick else {}
    if name == "paper-grid":
        return default_grid(policies=PAPER_POLICIES, seeds=(seed, seed + 1), **size)
    return [SimConfig(**{**SINGLE[name], **size, "seed": seed})]


def pool_workers() -> int:
    """The pool size ``sweep()`` picks by default: one worker per CPU."""
    return os.cpu_count() or 1


def digest(outputs) -> str:
    """sha256 of the canonical JSON of one metrics dict, or of a grid's list of them."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def pinned_digest(name: str, seed: int, quick: bool) -> str | None:
    pins = json.loads(DIGESTS.read_text())
    if seed != pins["seed"]:
        return None
    return pins["quick" if quick else "full"].get(name)


def _rows(outputs) -> list[dict]:
    return outputs if isinstance(outputs, list) else [outputs]


class Tally:
    """Output check over a child's repetitions: sanity, determinism, pinned digest."""

    def __init__(self, pinned: str | None):
        self.pinned = pinned
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outputs, problems=()) -> bool:
        """Check one repetition's outputs; True when it passed."""
        problems = list(problems)
        for i, m in enumerate(_rows(outputs)):
            for key in CHECKED_KEYS:
                v = m.get(key)
                if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                    problems.append(f"config {i}: {key}={v!r} is not a finite value >= 0")
        d = digest(outputs)
        if self.digest is None:
            self.digest = d
        elif d != self.digest:
            problems.append(f"digest {d[:12]} differs from the first repetition's {self.digest[:12]}")
        if self.pinned is not None and d != self.pinned:
            problems.append(f"digest {d[:12]} differs from the pinned {self.pinned[:12]}")
        return self._count(problems)

    def error(self, exc: BaseException) -> None:
        traceback.print_exception(exc, file=sys.stderr)
        self._count([f"{type(exc).__name__}: {exc}"])

    def _count(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)
        return not problems


# --------------------------------------------------------------------------
# One repetition of each workload kind
# --------------------------------------------------------------------------


@functools.cache
def _calibration_data():
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.random(1 << 22)  # 32 MB: outgrows L2 and shares L3 with other tenants
    return big, np.empty_like(big), rng.integers(0, big.size, 1 << 18), rng.random(1 << 16), rng.random(8)


def calibrate(slices: int = 1) -> float:
    """Mean wall seconds of ``slices`` runs of a fixed slice of benchmark-owned work.

    Other tenants of a shared host slow this slice and the simulator alike,
    for seconds to minutes at a time.  A stretch of host time times
    ``CAL_REF_S`` divided by the slice's time around it is the stretch in
    reference seconds, which such slowdowns move far less than host time
    (see :func:`ref_scale`).  The slice mixes, in about equal
    shares of its time, the kinds of work the simulator does: interpreter
    loops, object churn, many tiny numpy calls, an in-cache sort, a stream
    and random gathers over 32 MB.  It runs with the collector off, so
    objects the simulator left alive cannot change its cost.
    """
    import numpy as np

    big, out, idx, small, tiny = _calibration_data()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(slices):
            counts: dict[int, int] = {}
            for i in range(54_000):
                k = (i * 7919) & 4095
                counts[k] = counts.get(k, 0) + i
            rows = [(i, str(i)) for i in range(27_000)]
            rows.sort(key=lambda r: -r[0])
            for _ in range(8_000):
                tiny = np.add(tiny, 1.0)
                tiny.argmax()
            for _ in range(20):
                np.sort(small)
            np.multiply(big, 1.0001, out=out)
            out.sum()
            for _ in range(2):
                big[idx].sum()
        return (time.perf_counter() - t0) / slices
    finally:
        gc.enable()


def ref_scale(cal_s: float, sensitivity: float = 1.0) -> float:
    """Reference seconds per host second of a measurement taken between
    slices that took ``cal_s`` seconds (the mean of the slices before and
    after it)."""
    return (CAL_REF_S / cal_s) ** sensitivity


def run_single(cfg, record: bool, tracer=None):
    """One ``simulate()`` call; returns (wall s, metrics, problems, recorders)."""
    from edm import simulate
    from edm.telemetry import TimeSeriesRecorder

    recorders = (TimeSeriesRecorder(),) if record else ()
    t0 = time.perf_counter()
    metrics = simulate(cfg, recorders=recorders, tracer=tracer)
    wall = time.perf_counter() - t0
    metrics.pop("timings", None)
    return wall, metrics, [], recorders


def run_grid(cfgs, workers: int, scratch: Path, cold_tracer=None, warm_tracer=None, run_log=None):
    """A cold ``sweep()`` into a fresh cache (timed), then a warm pass.

    Returns (cold wall s, metrics list, problems, (cold, warm, warm wall s)).
    """
    from edm import sweep

    def probed(tracer):
        return Probe(tracer).cache() if tracer is not None else contextlib.nullcontext()

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        with probed(cold_tracer):
            t0 = time.perf_counter()
            cold = sweep(cfgs, cache_dir=cache_dir, workers=workers, tracer=cold_tracer, run_log=run_log)
            metrics = list(cold.iter_results())
            wall = time.perf_counter() - t0
        with probed(warm_tracer):
            t0 = time.perf_counter()
            warm = sweep(cfgs, cache_dir=cache_dir, workers=workers, tracer=warm_tracer)
            warm_metrics = list(warm.iter_results())
            warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    problems = []
    if warm.cache_hits != len(cfgs):
        problems.append(f"warm pass hit the cache {warm.cache_hits} of {len(cfgs)} times")
    if digest(warm_metrics) != digest(metrics):
        problems.append("warm pass metrics differ from the cold pass")
    return wall, metrics, problems, (cold, warm, warm_s)


def traced_single(cfg, record: bool):
    """One traced ``simulate()``; returns (wall s, metrics, problems, per-layer)."""
    from edm import Tracer

    tracer = Tracer()
    probe = Probe(tracer)
    with probe.engine():
        wall, metrics, problems, recorders = run_single(cfg, record, tracer)
    summary = tracer.summary()
    per_layer = layer_metrics(summary, probe.counts, [metrics], cfg.num_osds * cfg.epochs)
    per_layer["trace.coverage"] = self_times(summary)[2] / wall
    if recorders and recorders[0].series is not None:
        per_layer["telemetry.samples"] = recorders[0].series.num_samples
    return wall, metrics, problems, per_layer


def traced_grid(cfgs, workers: int, scratch: Path):
    """One traced cold + warm sweep; returns (wall s, metrics, problems, per-layer)."""
    from edm import Tracer, read_run_log

    cold_tr, warm_tr = Tracer(), Tracer()
    run_log = Path(tempfile.mkdtemp(prefix="runlog-", dir=scratch)) / "runs.jsonl"
    # Sweep workers see the patch below only when they are forked after it
    # (spawn and forkserver workers import edm afresh).  The timed
    # repetitions before this ran with the interpreter's default start method.
    multiprocessing.set_start_method("fork", force=True)
    try:
        # Each traced run in a worker is probed too; its counts come back
        # through the run log.
        with patched([(resolve("edm.sweep"), "simulate", probed_simulate)]):
            wall, metrics, problems, (cold, warm, warm_s) = run_grid(
                cfgs, workers, scratch, cold_tr, warm_tr, run_log
            )
        runs = [r for r in read_run_log(run_log) if r["event"] == "run_end"]
    finally:
        shutil.rmtree(run_log.parent, ignore_errors=True)
    summary, counts = merge_summaries(r["timings"] for r in runs)
    osd_epochs = sum(c.num_osds * c.epochs for c in cfgs)
    per_layer = layer_metrics(summary, counts, metrics, osd_epochs)
    stages = cold.timings or {}
    for stage in ("cache_probe", "pool_startup", "collect"):
        if f"sweep.{stage}" in stages:
            per_layer[f"sweep.{stage}_s"] = stages[f"sweep.{stage}"]["total_s"]
    busy = sum(r["wall_s"] for r in runs)
    per_layer["sweep.worker_simulate_s"] = busy
    per_layer["sweep.pool_busy_frac"] = busy / (workers * wall)
    cold_self, cold_calls, cold_top = self_times(stages)
    warm_self, warm_calls, _ = self_times(warm.timings or {})
    if cold_calls.get("cache_store"):
        per_layer["cache.store_us_per_config"] = cold_self["cache_store"] / cold_calls["cache_store"] * 1e6
    if warm_calls.get("cache_load"):
        per_layer["cache.load_us_per_config"] = warm_self["cache_load"] / warm_calls["cache_load"] * 1e6
    per_layer["cache.warm_sweep_s"] = warm_s
    per_layer["cache.warm_hits"] = warm.cache_hits
    per_layer["trace.coverage"] = cold_top / wall
    return wall, metrics, problems, per_layer


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Fresh interpreter: time import + config validation + first-config state.

    Prints that time and then the calibration slice's time in the same
    process, which tracks it far better than a slice timed in the parent:
    the two processes need not share a CPU or a moment of the host's load.
    """
    t0 = time.perf_counter()
    import edm  # noqa: F401
    import numpy as np
    from edm.config import rng_seed_sequence
    from edm.engine.state import init_state
    from edm.workloads import make_workload

    cfg = build_configs(args.setup_probe, args.seed, args.quick)[0]
    init_state(cfg)
    make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg).spawn(2)[0]))
    setup_s = time.perf_counter() - t0
    calibrate()  # untimed: builds the slice's data and touches its pages
    print(repr(setup_s), repr(calibrate(SETUP_CAL_SLICES)))
    return 0


def child(args) -> int:
    """Run one workload's closed loop (and traced pass); print a JSON result."""
    import edm

    if not Path(edm.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported edm from {edm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    name = args.child
    cfgs = build_configs(name, args.seed, args.quick)
    # Configured, not simulated, requests: bursty traces simulate a
    # seed-dependent volume at a seed-independent cost.
    requests = sum(c.epochs * c.requests_per_epoch for c in cfgs)
    workers = pool_workers()
    tally = Tally(pinned_digest(name, args.seed, args.quick))
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    if name == "paper-grid":
        def rep():
            return run_grid(cfgs, workers, scratch)[:3]

        def traced():
            return traced_grid(cfgs, workers, scratch)
    else:
        record = name in RECORDED

        def rep():
            return run_single(cfgs[0], record)[:3]

        def traced():
            return traced_single(cfgs[0], record)

    def attempt(fn):
        try:
            out = fn()
        except Exception as exc:  # a failed repetition counts; the loop goes on
            tally.error(exc)
            return None
        return out if tally.record(out[1], out[2]) else None

    cal_pool = None
    try:
        first = attempt(rep)  # warm-up: untimed, but checked
        # The simulator's own peak, pool workers included, before the
        # calibration data and processes exist.
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        slices = CAL_SLICES[name]
        if name == "paper-grid":
            # A sweep keeps every CPU busy, and other tenants slow each CPU
            # by its own amount: time the slice on all of them at once.
            cal_pool = multiprocessing.get_context("fork").Pool(workers)

            def cal():
                return statistics.fmean(cal_pool.map(calibrate, [slices] * workers))
        else:
            def cal():
                return calibrate(slices)

        # Each repetition's host time is scaled by the mean of the slices
        # timed just before and just after it.
        walls, rates, ref_rates, cal_times = [], [], [], [cal()]
        start = time.perf_counter()
        attempts = 0
        while attempts < MIN_REPS or time.perf_counter() - start < args.seconds:
            attempts += 1
            out = attempt(rep)
            cal_times.append(cal())
            if out is not None:
                walls.append(out[0])
                rates.append(requests / out[0])
                scale = ref_scale(statistics.fmean(cal_times[-2:]), CAL_SENSITIVITY[name])
                ref_rates.append(requests / (out[0] * scale))
        layer_runs = []
        if args.trace != 0 and walls:
            untraced = statistics.median(walls)
            for _ in range(TRACED_REPS):
                out = attempt(traced)
                if out is not None:
                    out[3]["trace.overhead_frac"] = out[0] / untraced - 1
                    layer_runs.append(out[3])
    finally:
        if cal_pool is not None:
            cal_pool.close()
            cal_pool.join()
        shutil.rmtree(scratch, ignore_errors=True)
    outputs = _rows(first[1]) if first is not None else []
    if len(outputs) == 1:
        shown = {k: outputs[0][k] for k in SHOWN_KEYS if k in outputs[0]}
    elif outputs:  # a grid: means over its configs
        shown = {k: statistics.fmean(m[k] for m in outputs) for k in CHECKED_KEYS}
        shown["configs"] = len(outputs)
    else:
        shown = {}
    per_layer = {
        k: statistics.median(run[k] for run in layer_runs)
        for k in layer_runs[0] if all(k in run for run in layer_runs)
    } if layer_runs else {}
    print(json.dumps({
        "rates": rates,
        "ref_rates": ref_rates,
        "cal_times": cal_times,
        "rss_mb": rss_kb / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "digest": tally.digest,
        "pinned": tally.pinned,
        "outputs": shown,
        "per_layer": per_layer,
        "traced_reps": len(layer_runs),
    }))
    return 0 if tally.failed == 0 else 1


# --------------------------------------------------------------------------
# Parent: launch children, gather, print
# --------------------------------------------------------------------------


def _child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": path, "TMPDIR": str(SCRATCH)}


def _launch(argv: list[str], timeout: float) -> tuple[int, str]:
    """Run ``run.py argv`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env(), start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return -1, out
    return proc.returncode, out


def _last_json(out: str):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_workload(name: str, args) -> dict | None:
    """Measure one workload; None when a child crashed without a result."""
    common = ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    trace = [] if args.trace is None else ["--trace", str(args.trace)]
    code, out = _launch(["--child", name, "--seconds", str(args.seconds), *trace, *common],
                        timeout=4 * args.seconds + 90)
    res = _last_json(out)
    if res is None:
        print(f"error: workload {name}: child exited {code} without a result", file=sys.stderr)
        return None
    rec = {
        "seed": args.seed,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": res["problems"],
        "digest": res["digest"],
        "pinned": res["pinned"],
        "outputs": res["outputs"],
        "end_to_end": {},
        "per_layer": {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()},
        "traced_reps": res["traced_reps"],
        # Host rate of each timed repetition and the slice times around them.
        "samples": {"rates": res["rates"], "cal_times": res["cal_times"]},
    }
    e2e = rec["end_to_end"]
    e2e["failed_frac"] = {"value": res["failed"] / max(res["attempted"], 1), "n": res["attempted"]}
    if args.trace != 1:
        if res["rates"]:
            e2e["sim_req_per_ref_s"] = _stat(res["ref_rates"])
            e2e["sim_req_per_s"] = _stat(res["rates"])
        e2e["peak_rss_mb"] = {"value": res["rss_mb"], "n": 1}
        setups, ref_setups = [], []
        for _ in range(QUICK_SETUP_LAUNCHES if args.quick else SETUP_LAUNCHES):
            code, out = _launch(["--setup-probe", name, *common], timeout=30)
            try:
                host_s, cal_s = map(float, out.strip().splitlines()[-1].split())
            except (ValueError, IndexError):
                print(f"error: workload {name}: set-up probe exited {code}", file=sys.stderr)
                return None
            setups.append(host_s)
            ref_setups.append(host_s * ref_scale(cal_s))
        e2e["setup_s"] = _stat(ref_setups)
        e2e["setup_host_s"] = _stat(setups)
    for metric, stat in e2e.items():
        stat["unit"] = E2E_UNITS[metric]
    return rec


def _stat(values: list[float]) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str:
    """HEAD of the checkout's own ``.git``, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(args) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "nproc": os.cpu_count(),
        "workers": pool_workers(),
        "python": platform.python_version(),
        "numpy": numpy,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "thread_env": THREAD_ENV,
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_workload(name: str, rec: dict, spec: dict) -> None:
    print(f"== {name} (seed {rec['seed']}) ==")
    e2e = rec["end_to_end"]
    gated = [m["name"] for m in spec["end_to_end"]]
    for metric in gated + [m for m in E2E_UNITS if m not in gated]:
        if metric not in e2e:
            continue
        s = e2e[metric]
        spread = f"  [q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}]" if "q1" in s else ""
        print(f"  {metric:<34} {_fmt(s['value']):>12} {s['unit']:<8}{spread}  n={s['n']}")
    pin = "no pin at this seed" if rec["pinned"] is None else (
        "matches pinned" if rec["digest"] == rec["pinned"] else "DIFFERS from pinned"
    )
    print(f"  digest {rec['digest']} ({pin})")
    print("  outputs " + " ".join(f"{k}={_fmt(v)}" for k, v in rec["outputs"].items()))
    for problem in rec["problems"][:10]:
        print(f"  FAILED: {problem}")
    if rec["traced_reps"]:
        print(f"  per-layer (median of {rec['traced_reps']} traced repetitions)")
        for metric in LAYER_METRICS:
            s = rec["per_layer"].get(metric)
            shown = f"{_fmt(s['value']):>12} {s['unit']}" if s else f"{'absent':>12}"
            print(f"    {metric:<34}{shown}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of each workload's timed loop (default %(default)s; 0 with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer metrics only; default both")
    ap.add_argument("--out", type=Path, help="write the full result record (env stamp included) here")
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes and only the minimum repetitions, for smoke tests")
    ap.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.quick:
        args.seconds = 0
    if args.setup_probe:
        return setup_probe(args)
    if args.child:
        return child(args)

    if not (SRC / "edm" / "__init__.py").is_file():
        print(f"error: {SRC / 'edm'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    names = args.workload or list(WORKLOADS)
    env = env_stamp(args)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env"), flush=True)
    records = {}
    for name in names:
        rec = run_workload(name, args)
        if rec is None:
            return 1
        records[name] = rec
        print_workload(name, rec, spec)

    wanted = []
    if args.trace != 1:
        wanted += [m["name"] for m in spec["end_to_end"]]
    if args.trace != 0:
        wanted += [m["name"] for m in spec["per_layer"]]
    metrics = {}
    for name, rec in records.items():
        measured = {**rec["end_to_end"], **rec["per_layer"]}
        for metric in wanted:
            if metric in measured:
                key = metric if len(records) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": measured[metric]["value"], "unit": measured[metric]["unit"]}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    correct = failed == 0 and all(not r["problems"] for r in records.values())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": env, "workloads": records}, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
