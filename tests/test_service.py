"""Request-level service model: spec semantics, queue recursion, latency
metrics, and the run-binned-vs-per-request bit-identity contract.

The service layer must never perturb what the engine computes without it:
shared metrics of a serviced run stay bit-identical to the unserviced run
(pinned here and by the untouched pre-service golden digests).  A block
of epochs bins each OSD's latency run at the edges inside it; it is pinned
against the per-request references in service_reference.py on raw arrays,
on hand-built states, and through entire simulate() runs via monkeypatch.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.config import POLICIES
from edm.engine import core
from edm.engine.core import simulate
from edm.service import LATENCY_EDGES, ServiceModel, histogram_percentile
from edm.service import runtime
from edm.service.runtime import ServiceRuntime, admit, bin_runs, run_latencies
from edm.spec import SpecError
from edm.telemetry import TimeSeriesRecorder
from edm.telemetry.recorder import mean_std
from edm.topology import TopologyEvent
from service_reference import (
    bin_latencies,
    epoch_block,
    epoch_service_reference,
    epoch_service_vectorized,
    reference_block,
    reference_step,
)

NUM_BINS = LATENCY_EDGES.size - 1


# --- spec semantics ----------------------------------------------------------


def test_empty_model_is_falsy_and_rates_inf():
    model = ServiceModel.parse("")
    assert not model
    assert model.spec == ""
    assert model.queue is None and np.isinf(model.queue_bound)
    assert np.isinf(model.per_osd(4)).all()


def test_rates_layering_default_plus_bands():
    model = ServiceModel.parse("rate:800;rate:400@0-3;queue:64", num_osds=8)
    assert model.default == 800.0
    assert model.queue == 64 and model.queue_bound == 64.0
    assert model.per_osd(8).tolist() == [400.0] * 4 + [800.0] * 4


def test_rates_full_coverage_without_default():
    model = ServiceModel.parse("rate:400@0-3;rate:800@4-7", num_osds=8)
    assert model.default is None
    assert model.per_osd(8).tolist() == [400.0] * 4 + [800.0] * 4


@pytest.mark.parametrize("spec,message", [
    ("rate:800;queue:8;queue:16", r"at most one queue clause is allowed"),
    ("rate:800;queue:0", r"service clause 'queue:0': queue depth must be >= 1"),
    ("rate:0", r"service clause 'rate:0': service rate must be > 0"),
    ("rate:800;rate:400", r"at most one default \(range-free\) band"),
    ("rate:400@0-3", r"OSDs \[4, 5, 6, 7\] have no service rate"),
    ("rate:400@0-3;rate:800@3-7", r"OSD 3 is rated by more than one band"),
])
def test_spec_rejections(spec, message):
    with pytest.raises(SpecError, match=message):
        ServiceModel.parse(spec, num_osds=8)


def test_config_canonicalizes_service_spec(make_cfg):
    cfg = make_cfg(service="queue:64;rate:200.0")
    assert cfg.service == "rate:200;queue:64"


# --- percentile guards -------------------------------------------------------


def test_percentile_empty_histogram_is_nan():
    # Explicit branch, not 0/0 -- must hold under -W error::RuntimeWarning.
    assert np.isnan(histogram_percentile(np.zeros(NUM_BINS, dtype=np.int64), 0.5))


def test_percentile_overflow_bin_is_inf():
    # The overflow slot sits *past* the last real bin (hist has NUM_BINS + 1
    # entries): only latencies beyond the last finite edge report inf.
    hist = np.zeros(NUM_BINS + 1, dtype=np.int64)
    hist[-1] = 10  # every request slower than the last finite edge
    assert np.isinf(histogram_percentile(hist, 0.5))


def test_percentile_top_real_bin_is_finite():
    # A latency inside the last log-spaced bin (just under the 1e4 edge) is
    # finite and must never be reported as inf -- the regression the
    # dedicated overflow slot exists to prevent.
    hist = np.zeros(NUM_BINS + 1, dtype=np.int64)
    hist[NUM_BINS - 1] = 10
    p = histogram_percentile(hist, 0.99)
    assert np.isfinite(p)
    assert p == LATENCY_EDGES[NUM_BINS - 1]


def test_percentile_reads_lower_bin_edge():
    hist = np.zeros(NUM_BINS, dtype=np.int64)
    hist[10] = 100
    for q in (0.5, 0.99, 0.999):
        assert histogram_percentile(hist, q) == LATENCY_EDGES[10]


def test_percentile_tail_crosses_bins():
    hist = np.zeros(NUM_BINS, dtype=np.int64)
    hist[5] = 99
    hist[200] = 1
    assert histogram_percentile(hist, 0.5) == LATENCY_EDGES[5]
    assert histogram_percentile(hist, 0.999) == LATENCY_EDGES[200]


# --- epoch step unit behaviors -----------------------------------------------


def arr(*xs):
    return np.asarray(xs, dtype=np.float64)


def serve(arrivals, base, rate, qbound):
    """The runtime's epoch: ``(accepted, latencies, new depth)``."""
    accepted, depth = admit(arrivals, base, rate, qbound)
    lat = run_latencies(accepted, base, rate)[1] if accepted.any() else np.empty(0)
    return accepted, lat, depth


def test_zero_arrivals_zero_work():
    accepted, lat, depth = serve(
        np.array([0, 0]), arr(0, 0), arr(10, 10), np.inf
    )
    assert accepted.tolist() == [0, 0]
    assert lat.size == 0
    assert depth.tolist() == [0.0, 0.0]


def test_dead_osd_admits_nothing():
    accepted, lat, _ = serve(
        np.array([5, 5]), arr(0, 0), arr(0.0, 10.0), np.inf
    )
    assert accepted.tolist() == [0, 5]
    assert np.isfinite(lat).all()


def test_bounded_queue_drops_beyond_room():
    # rate 2, bound 3: room for floor(3 + 2 - 0) = 5 of the 10 arrivals.
    accepted, _, depth = serve(
        np.array([10]), arr(0), arr(2), 3.0
    )
    assert accepted.tolist() == [5]
    assert depth.tolist() == [3.0]  # 0 + 5 - 2, clamped at the bound


def test_backlog_past_the_bound_admits_nothing_and_stays():
    # Injected migration work can push the base past bound + rate: the
    # bound then stops admission, but depth is not clipped to it.
    accepted, new_depth = admit(np.array([5.0]), arr(30), arr(10), 8.0)
    assert accepted.tolist() == [0]
    assert new_depth.tolist() == [20.0]


def test_fifo_latency_positions():
    # 3 requests on a backlog of 2 at rate 4: sojourns (3,4,5)/4.
    _, lat, depth = serve(np.array([3]), arr(2), arr(4), np.inf)
    assert lat.tolist() == [0.75, 1.0, 1.25]
    assert depth.tolist() == [1.0]  # 2 + 3 - 4


def test_unbounded_queue_never_drops():
    accepted, _, depth = serve(
        np.array([1000]), arr(500), arr(1), np.inf
    )
    assert accepted.tolist() == [1000]
    assert depth.tolist() == [1499.0]


# --- run binning == per-request reference, bit for bit ----------------------


TWO53 = 2.0**53


def fuzz_epochs(seed, rounds):
    """Random epochs, after the cases the run binning must get exactly right."""
    # Latencies exactly on edges: rate 1, no backlog gives 1, 2, ..., 10001
    # (1, 10, ..., 1e4 are edges; the top one is inclusive).
    yield arr(10001), arr(0), arr(1), np.inf
    # Unbounded backlog past 1e4 epochs of service: the overflow slot.
    yield arr(300, 40), arr(49_900, 0), arr(5, 5), np.inf
    # Backlogs >= 2**53, where base + i + 1 stops being exact, straddling
    # an edge (float spacing 2 and 8 there).
    edge = LATENCY_EDGES[200]
    yield (arr(64, 64), arr(TWO53, 4 * TWO53),
           arr((TWO53 + 32) / edge, (4 * TWO53 + 200) / edge), np.inf)
    # Subnormal rates: 5e-308 gives 8 finite latencies then +inf, 1e-310
    # only +inf.
    yield arr(20, 20, 5), arr(0, 0, 0), arr(5e-308, 1e-310, 3), np.inf
    # Zero accepted: dead / zero-rate OSDs, or no room left in the queue.
    yield arr(5, 7), arr(0, 0), arr(0, 0), np.inf
    yield arr(5), arr(100), arr(2), 4.0
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        n = int(rng.integers(1, 12))
        arrivals = rng.integers(0, 400, size=n).astype(np.float64)
        base = rng.uniform(0, rng.choice([50.0, 5e4, 1e17]), size=n)
        rate = rng.uniform(0, 40, size=n)
        rate[rng.random(n) < 0.2] = 0.0  # dead OSDs
        yield arrivals, base, rate, float(rng.choice([np.inf, 4.0, 32.0, 128.0]))


def test_epoch_step_matches_reference_fuzz():
    """admit + run_latencies + bin_runs against the scalar per-request model."""
    # The subnormal rates overflow to +inf, and so do sums near 1e308.
    with np.errstate(over="ignore"):
        for arrivals, base, rate, qbound in fuzz_epochs(20260808, 200):
            case = (arrivals, base, rate, qbound)
            ref_acc, ref_lat, ref_depth = epoch_service_reference(*case)
            vec = epoch_service_vectorized(*case)
            accepted, depth = admit(*case)
            runs = run_latencies(accepted, base, rate) if accepted.any() else None
            for v, r in zip(vec, (ref_acc, ref_lat, ref_depth)):
                assert np.array_equal(v, r), case
            assert np.array_equal(accepted, ref_acc), case
            assert np.array_equal(depth, ref_depth), case
            if runs is None:
                assert ref_lat.size == 0, case
                continue
            (a, b, r, head, tail), lat = runs
            assert np.array_equal(bin_runs(a, b, r, head, tail), bin_latencies(ref_lat)), case
            assert np.array_equal(lat, ref_lat), case
            stop = np.cumsum(a)
            assert np.array_equal(head, ref_lat[stop - a]), case
            assert np.array_equal(tail, ref_lat[stop - 1]), case


def test_run_binning_covers_the_special_cases():
    """The hand-made fuzz cases reach what they are there for."""
    cases = list(fuzz_epochs(0, 0))
    hists = [bin_latencies(epoch_service_reference(*c)[1]) for c in cases[:2]]
    assert hists[0][NUM_BINS - 1] > 0 and hists[0][NUM_BINS] == 1  # 1e4 in, 10001 out
    assert hists[1][NUM_BINS] > 0
    _, lat, _ = epoch_service_reference(*cases[2])
    assert lat.min() < LATENCY_EDGES[200] <= lat.max()
    with np.errstate(over="ignore"):
        _, lat, _ = epoch_service_reference(*cases[3])
    assert np.isfinite(lat).sum() == 8 + 5 and np.isinf(lat).sum() == 12 + 20


def clone_runs(cfg, rng, n):
    """Two identical hand-built (state, service runtime) pairs for a
    step-vs-step fuzz."""
    rate = rng.uniform(0, 40, size=n)
    rate[rng.random(n) < 0.2] = 0.0  # zero-rate OSDs
    rate[rng.random(n) < 0.05] = 1e-308  # subnormal: finite prefix, then +inf
    depth = rng.uniform(0, 100, size=n)
    depth[rng.random(n) < 0.15] *= 500  # past 1e4 epochs of service
    depth[rng.random(n) < 0.1] = TWO53 * rng.integers(1, 4)
    pending = np.where(rng.random(n) < 0.5, rng.uniform(0, 500, size=n), 0.0)
    alive = rng.random(n) > 0.15
    model = ServiceModel.parse(cfg.service, num_osds=n)
    runs = []
    for _ in range(2):
        state = make_state(cfg)
        state.osd_alive = alive.copy()
        rt = ServiceRuntime(model, cfg)
        rt.on_run_start(cfg, state)
        rt.rate, rt.depth, rt.backlog = rate.copy(), depth.copy(), pending.copy()
        runs.append((state, rt))
    return runs


# Every run-level service accumulator; the per-epoch series hold the rest
# (the depth sums and the epoch count that metrics_block derives).
ACCUMULATORS = ("hist", "lat_sum", "stalled_total", "requests_total",
                "dropped_total", "lost_work", "spike_lat_max", "_mig_lat_sum",
                "_mig_lat_count", "_clean_lat_sum", "_clean_lat_count", "_depth_max")


def assert_same_accounting(rt, ref):
    """Every accumulator, per-epoch series and derived metric of two
    runtimes, bit for bit."""
    series, ref_series = rt.epoch_series(), ref.epoch_series()
    for key, values in series.items():
        assert values.tobytes() == ref_series[key].tobytes(), key
    for key in ACCUMULATORS:
        f, r = getattr(rt, key), getattr(ref, key)
        assert np.asarray(f).tobytes() == np.asarray(r).tobytes(), (key, f, r)
    # repr is exact for floats (and tells -0.0 from 0.0, nan from inf).
    assert repr(rt.metrics_block()) == repr(ref.metrics_block())


def test_step_matches_reference_step_fuzz():
    """ServiceRuntime.on_block against the per-request step, over blocks of
    one to four epochs, the accounting read after random blocks."""
    rng = np.random.default_rng(1357)
    reads = np.random.default_rng(7531)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        cfg = cfg_factory(num_osds=n, service=str(rng.choice(["rate:5", "rate:20;queue:256"])))
        (fast, fast_rt), (ref, ref_rt) = clone_runs(cfg, rng, n)
        epoch = 0
        while epoch < 6:
            k = int(rng.integers(1, 5))
            arrivals = rng.integers(0, 300, size=(k, n)).astype(np.float64)
            arrivals[rng.random(k) < 0.2] = 0.0  # epochs that accept nothing
            with np.errstate(over="ignore"):
                fast_rt.on_block(fast, epoch_block(fast, arrivals, epoch))
                for row in arrivals:
                    reference_step(ref_rt, ref, row)
                epoch += k
                if epoch >= 6 or reads.random() < 0.3:
                    assert_same_accounting(fast_rt, ref_rt)
            assert np.array_equal(fast_rt.depth, ref_rt.depth)
            assert np.array_equal(fast_rt.backlog, ref_rt.backlog)


@pytest.mark.parametrize("block", [1, 7, 128])
def test_blocked_histogram_equals_per_epoch_histograms(block, monkeypatch):
    """Runs binned ``block`` epochs at a time sum to the per-epoch
    histograms of run_latencies' runs bit for bit, after every block."""
    seen = []  # (accepted, base, rate) of every epoch the step admits

    def spy(arrivals, base, rate, qbound):
        out = admit(arrivals, base, rate, qbound)
        seen.append((out[0], base.copy(), rate.copy()))
        return out

    monkeypatch.setattr(runtime, "admit", spy)
    rng = np.random.default_rng(2468 + block)
    kinds = set()
    for _ in range(12):
        n = int(rng.integers(2, 10))
        cfg = cfg_factory(num_osds=n, service=str(rng.choice(["rate:5", "rate:20;queue:256"])))
        state, rt = clone_runs(cfg, rng, n)[0]
        expected = np.zeros_like(rt.hist)
        epoch = 0
        while epoch < 40:
            k = min(block, 40 - epoch)
            arrivals = rng.integers(0, 300, size=(k, n)).astype(np.float64)
            arrivals[rng.random(k) < 0.2] = 0.0  # epochs that accept nothing
            if rng.random() < 0.05:
                state.osd_alive[rng.integers(n)] = False  # a death between blocks
            with np.errstate(over="ignore"):
                rt.on_block(state, epoch_block(state, arrivals, epoch))
                for accepted, base, rate in seen[-k:]:
                    if accepted.any():
                        runs, lat = run_latencies(accepted, base, rate)
                        expected += bin_runs(*runs)
                        kinds.add("finite" if np.isfinite(lat).all() else "inf")
                    else:
                        kinds.add("empty")
                assert np.array_equal(rt.hist, expected)
            epoch += k
        kinds.add("overflow" if expected[-1] else "bounded")
    assert kinds == {"inf", "finite", "empty", "overflow", "bounded"}


@pytest.mark.parametrize("block", [1, 3, core.EPOCH_BLOCK])
def test_blocked_accounting_equals_block_of_one(block):
    """Epochs accounted a block at a time -- cut, as the engine cuts them,
    when the block fills, before every death, add and drain, and at random
    reads -- leave every accumulator and per-epoch series as blocks of one
    do, bit for bit, through +inf runs and zero-accept epochs."""
    rng = np.random.default_rng(8642 + block)
    reads = np.random.default_rng(2468)
    seen = set()
    for _ in range(12):
        n = int(rng.integers(2, 8))
        cfg = cfg_factory(num_osds=n, service=str(rng.choice(["rate:5", "rate:20;queue:256"])))
        runs = clone_runs(cfg, rng, n)
        (state0, one), (_, blocked) = runs
        rows = [[], []]  # each run's open block of arrival rows

        def cut(r):
            if rows[r]:
                state, rt = runs[r]
                with np.errstate(over="ignore"):
                    rt.on_block(state, epoch_block(state, np.array(rows[r])))
                rows[r].clear()

        for epoch in range(30):
            event = rng.choice(["none", "death", "add", "drain"], p=[0.85, 0.05, 0.05, 0.05])
            osd = int(rng.integers(state0.num_osds))
            arrivals = rng.integers(0, 300, size=state0.num_osds).astype(np.float64)
            if rng.random() < 0.2:
                arrivals[:] = 0.0  # an epoch that accepts nothing
            add_rate = float(rng.choice([1e-308, 30.0]))
            for r, ((state, rt), size) in enumerate(zip(runs, (1, block))):
                if event != "none":
                    cut(r)
                if event == "add":
                    state.grow(2)
                    rt.on_event(state, TopologyEvent("add", epoch, count=2, rate=add_rate), 0)
                elif event != "none":
                    state.osd_alive[osd] = False
                    state.osd_capacity[osd] = 0.0
                    if event == "drain":  # retired: its queues are discarded
                        rt.on_event(state, TopologyEvent("drain", epoch, osd=osd), 0)
                rows[r].append(np.concatenate((arrivals, [7.0, 9.0]))[: state.num_osds])
                if len(rows[r]) == size:
                    cut(r)
            seen.add(str(event))
            if reads.random() < 0.1:
                cut(1)
                with np.errstate(over="ignore"):
                    assert_same_accounting(blocked, one)
        cut(1)
        with np.errstate(over="ignore"):
            assert_same_accounting(blocked, one)
            assert np.array_equal(one.depth, blocked.depth)
        seen.add("inf" if one.stalled_total else "finite")
    assert seen == {"none", "death", "add", "drain", "inf", "finite"}


def test_mean_std_matches_numpy_bit_for_bit():
    """mean_std == (x.mean(), x.std()) exactly: sizes 1-300, alive-masked
    subsets, all-zero and constant vectors."""
    rng = np.random.default_rng(99)
    for n in range(1, 301):
        for x in (rng.lognormal(3.0, 2.0, size=n), rng.uniform(0, 1e6, size=n),
                  np.zeros(n), np.full(n, 0.1)):
            assert mean_std(x) == (x.mean(), x.std()), n
            alive = rng.random(n) < 0.7
            alive[0] = True
            sub = x[alive]
            assert mean_std(sub) == (sub.mean(), sub.std()), n


def test_mean_std_rows_match_numpy_bit_for_bit():
    """On a block, mean_std gives each row's (mean, std) exactly: a C-ordered
    block, a slice of its leading columns, and ``take`` along axis 1."""
    rng = np.random.default_rng(98)
    for n in range(1, 130):
        block = rng.lognormal(3.0, 2.0, size=(5, n + 7))
        idx = np.flatnonzero(rng.random(n + 7) < 0.7)
        for rows in (block, block[:, :n], block.take(idx, axis=1)):
            mean, std = mean_std(rows)
            assert [(m, s) for m, s in zip(mean, std)] == [(r.mean(), r.std()) for r in rows], n


SCALAR_XCHECK_CASES = [
    dict(policy=policy, service="rate:120;queue:64") for policy in POLICIES
] + [
    dict(policy="cmt", service="rate:60;rate:200@2-3", faults="fail:1@8"),
    dict(policy="cmt", service="rate:120;queue:32", workload="lair62",
         faults="slow:2@4x0.5", endurance="pe:900"),
    # Unbounded queues that reach the overflow slot.
    pytest.param(dict(policy="cmt", service="rate:2", requests_per_epoch=4096),
                 id="cmt-overflow"),
    # The composed bench's layer mix at test size: growth, a drain, a
    # failure, a slow disk and a wear-out around the blocked binning.
    pytest.param(dict(policy="cmt", num_osds=8, service="rate:120;queue:64",
                      topology="add:2@6/cap:2,rate:240;drain:2@12",
                      faults="fail:3@8;slow:5@4x0.5", endurance="pe:1500"),
                 id="cmt-composed"),
]


@pytest.mark.parametrize(
    "case", SCALAR_XCHECK_CASES, ids=lambda c: f"{c['policy']}-{c.get('faults') or 'healthy'}"
)
def test_whole_run_scalar_reference_bit_identical(case, monkeypatch):
    """Drive entire simulate() runs through the per-request step: zero metric diffs."""
    cfg = cfg_factory(**{"epochs": 24, "requests_per_epoch": 512, **case})
    fast = simulate(cfg)
    monkeypatch.setattr(ServiceRuntime, "on_block", reference_block)
    slow = simulate(cfg)
    assert set(fast) == set(slow)
    for key in fast:
        f, s = fast[key], slow[key]
        if isinstance(f, float) and np.isnan(f):
            assert np.isnan(s), key
        else:
            assert f == s, key


# --- engine integration ------------------------------------------------------


def test_service_block_present_and_sane(make_cfg):
    metrics = simulate(make_cfg(service="rate:120;queue:64"))
    assert metrics["service"] == "rate:120;queue:64"
    p50, p99, p999 = (
        metrics["service_lat_p50"],
        metrics["service_lat_p99"],
        metrics["service_lat_p999"],
    )
    assert 0 <= p50 <= p99 <= p999
    assert metrics["service_requests_total"] == 32 * 512
    assert 0 <= metrics["service_dropped_total"] < metrics["service_requests_total"]
    assert metrics["queue_depth_max"] <= 64.0
    assert "migration_spike_ratio" in metrics and "migration_spike_lat_max" in metrics


def test_serviced_run_keeps_shared_metrics_bit_identical(make_cfg):
    """The service model observes the cluster; it must never steer it."""
    plain = simulate(make_cfg())
    serviced = simulate(make_cfg(service="rate:120;queue:64"))
    assert "service_lat_p50" not in plain
    for key, value in plain.items():
        assert serviced[key] == value, key


def test_second_service_recorder_reports_its_own_configs_block(make_cfg):
    """No decision reads a queue, so a second ServiceRuntime riding a run
    (here through an add, a drain, a failure and rep:3 reconstruction)
    reports, byte for byte, the block its own config's run reports -- and
    leaves the run's own metrics as they are without it."""
    cfg = make_cfg(num_osds=8, epochs=32, service="rate:120;queue:64", redundancy="rep:3",
                   topology="add:2@6/cap:2;add:1@10/rate:240;drain:2@12", faults="fail:1@8")
    other = replace(cfg, service="rate:60;queue:8", service_migration_cost=3.0,
                    service_cooldown_epochs=4)
    extra = ServiceRuntime(other.plans["service"], other)
    metrics = simulate(cfg, recorders=(extra,))
    assert metrics["reconstruction_reads_total"] > 0 and metrics["osds_drained_total"] == 1
    assert json.dumps(metrics) == json.dumps(simulate(cfg))
    block, own = extra.metrics_block(), simulate(other)
    assert json.dumps(block) == json.dumps({key: own[key] for key in block})
    assert block != {key: metrics[key] for key in block}


def test_unserviced_metrics_carry_no_service_keys(make_cfg):
    metrics = simulate(make_cfg())
    assert not [k for k in metrics if k.startswith(("service", "queue_depth"))]


def test_slower_cluster_has_higher_latency(make_cfg):
    fast = simulate(make_cfg(service="rate:400"))
    slow = simulate(make_cfg(service="rate:100"))
    assert slow["service_lat_mean"] > fast["service_lat_mean"]
    assert slow["service_lat_p99"] >= fast["service_lat_p99"]
    assert slow["queue_depth_mean"] >= fast["queue_depth_mean"]


def test_dead_osd_backlog_becomes_lost_work(make_cfg):
    degraded = simulate(make_cfg(service="rate:100", faults="fail:1@8"))
    assert degraded["service_lost_work"] > 0.0
    healthy = simulate(make_cfg(service="rate:100"))
    assert healthy["service_lost_work"] == 0.0


def test_queue_bound_limits_admission_not_depth(make_cfg):
    # Migration work is injected uncapped, so depth stands above the bound;
    # without it the bound holds depth too.
    assert simulate(make_cfg(service="rate:10;queue:8"))["queue_depth_max"] > 8.0
    quiet = make_cfg(service="rate:10;queue:8", service_migration_cost=0.0)
    assert simulate(quiet)["queue_depth_max"] <= 8.0


def test_corpse_queue_fails_validate_until_the_step_books_it(make_cfg):
    """Dead OSDs hold no queued or pending work: the step zeroes a corpse's
    queues once, at death, and books them as lost work."""
    cfg = make_cfg(num_osds=4, service="rate:10")
    rt = ServiceRuntime(ServiceModel.parse(cfg.service, num_osds=4), cfg)
    state = make_state(cfg)
    rt.on_run_start(cfg, state)
    rt.depth[2] = 3.0
    rt.backlog[2] = 0.5
    rt.validate(state)  # alive: fine
    state.osd_alive[2] = False
    state.osd_capacity[2] = 0.0
    state.chunk_owner[state.chunk_owner == 2] = 0
    state.validate()  # the cluster itself is consistent
    with pytest.raises(AssertionError, match="dead OSD holds queued or pending"):
        rt.validate(state)
    rt.on_block(state, epoch_block(state, np.zeros(4)))
    rt.validate(state)
    assert rt.lost_work == 3.5


@pytest.mark.parametrize("name", ["rate", "depth", "backlog"])
def test_validate_checks_every_queue_width(make_cfg, name):
    cfg = make_cfg(service="rate:10")
    rt = ServiceRuntime(cfg.plans["service"], cfg)
    state = make_state(cfg)
    rt.on_run_start(cfg, state)
    setattr(rt, name, getattr(rt, name)[:-1])
    with pytest.raises(AssertionError, match=f"service {name} width"):
        rt.validate(state)


@pytest.mark.parametrize("name,value,message", [
    ("depth", -1.0, "service depth went negative"),
    ("backlog", np.nan, "service backlog went negative or NaN"),
    ("rate", 0.0, "non-positive rates"),
])
def test_validate_checks_queue_values(make_cfg, name, value, message):
    cfg = make_cfg(service="rate:10")
    rt = ServiceRuntime(cfg.plans["service"], cfg)
    state = make_state(cfg)
    rt.on_run_start(cfg, state)
    rt.validate(state)
    getattr(rt, name)[1] = value
    with pytest.raises(AssertionError, match=message):
        rt.validate(state)


def test_queue_aggregates_exclude_dead_osds(make_cfg):
    """Depth mean/CoV are survivor-masked: a dead OSD's permanent zero must
    not dilute the mean or inflate the CoV for the rest of the run."""
    cfg = make_cfg(num_osds=4, service="rate:10;queue:64")
    model = ServiceModel.parse(cfg.service, num_osds=4)
    rt = ServiceRuntime(model, cfg)
    state = make_state(cfg)
    rt.on_run_start(cfg, state)
    state.osd_alive[0] = False
    arrivals = np.array([0.0, 30.0, 40.0, 50.0])
    rt.on_block(state, epoch_block(state, arrivals))
    series, block = rt.epoch_series(), rt.metrics_block()
    d = rt.depth[1:]  # survivors
    assert block["queue_depth_mean"] == pytest.approx(float(d.mean()))
    assert block["queue_depth_cov_mean"] == pytest.approx(float(d.std() / d.mean()))
    assert rt._depth_max == pytest.approx(float(d.max()))
    assert series["queue_depth_mean"].tolist() == [block["queue_depth_mean"]]
    assert series["queue_depth_cov"].tolist() == [block["queue_depth_cov_mean"]]


def test_degraded_queue_metrics_match_survivor_stats(make_cfg):
    """End to end: after a fail, queue_depth_mean reflects live queues, so a
    degraded run's mean must exceed the same run diluted by corpse zeros
    (which is what the old unmasked aggregation reported)."""
    cfg = make_cfg(service="rate:100;queue:64", faults="fail:1@4")
    m = simulate(cfg)
    assert m["queue_depth_mean"] > 0.0
    assert np.isfinite(m["queue_depth_cov_mean"])


def test_migration_work_creates_latency_spikes(make_cfg):
    # Slow enough that queues form; migration bursts must then show up as a
    # distinct (and slower) latency population.
    metrics = simulate(make_cfg(service="rate:120;queue:256"))
    assert np.isfinite(metrics["migration_spike_ratio"])
    assert metrics["migration_spike_lat_max"] > 0.0


# --- telemetry ---------------------------------------------------------------


def test_timeseries_service_columns(make_cfg):
    rec = TimeSeriesRecorder(record_every=1)
    simulate(make_cfg(service="rate:120;queue:64"), recorders=(rec,))
    s = rec.series
    assert s.queue_depth_mean.shape == (s.num_samples,)
    assert (s.queue_depth_mean >= 0).all() and (s.queue_depth_cov >= 0).all()
    assert s.queue_depth_mean.max() > 0  # rate 120 < load: queues must form
    assert s.service_lat_mean.max() > 0
    assert s.meta["service"] == "rate:120;queue:64"


def test_timeseries_service_columns_zero_without_model(small_cfg):
    rec = TimeSeriesRecorder(record_every=1)
    simulate(small_cfg, recorders=(rec,))
    assert (rec.series.queue_depth_mean == 0).all()
    assert (rec.series.service_lat_mean == 0).all()
    assert rec.series.meta["service"] == ""


# --- CLI and run log ---------------------------------------------------------


def test_cli_run_service_reports_tail_latency(capsys):
    from edm.cli import main

    rc = main([
        "run", "--osds", "4", "--policy", "cmt", "--epochs", "16",
        "--requests", "512", "--service", "rate:120;queue:64",
    ])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    for key in ("service_lat_p50", "service_lat_p99", "service_lat_p999",
                "migration_spike_ratio"):
        assert key in metrics
    assert metrics["service"] == "rate:120;queue:64"


def test_sweep_emits_service_run_log_records(tmp_path):
    from edm.obs import read_run_log
    from edm.sweep import default_grid, sweep

    grid = default_grid(
        workloads=("deasna",), osds=(4,), policies=("cmt",), seeds=(1,),
        service=("", "rate:120;queue:64"),
        epochs=16, requests_per_epoch=512, chunks_per_osd=8,
    )
    log_path = tmp_path / "runs.jsonl"
    sweep(grid, cache_dir=tmp_path / "cache", workers=1, run_log=log_path)
    records = read_run_log(log_path)  # strict: every record passes the schema
    service_records = [r for r in records if r["event"] == "service"]
    assert len(service_records) == 1  # one serviced config in the grid
    rec = service_records[0]
    assert rec["config"].startswith("deasna-4osd-cmt-s0.02-r1-q")
    assert rec["requests"] == 16 * 512
    assert rec["lat_p50"] <= rec["lat_p99"] <= rec["lat_p999"]
