"""Sweep runner: grid construction, cache integration, worker-count invariance,
incremental cache population under failure, and the progress line."""

import io

import pytest

from edm.cache import ResultCache
from edm.config import SimConfig
from edm.obs import ProgressLine
from edm.sweep import SUMMARY_KEYS, SweepResult, default_grid, sweep

TINY = dict(epochs=16, requests_per_epoch=256, chunks_per_osd=8)


def tiny_grid():
    return default_grid(
        workloads=("deasna", "lair62"),
        osds=(4,),
        policies=("baseline", "cmt"),
        seeds=(1,),
        **TINY,
    )


def test_default_grid_covers_the_policy_zoo():
    grid = default_grid()
    assert len(grid) == 96  # 4 workloads x 2 cluster sizes x 6 policies x 2 seeds
    names = {c.cache_name() for c in grid}
    assert "deasna-16osd-cmt-s0.02-r12345" in names
    assert "lair62b-20osd-baseline-s0.02-r54321" in names
    assert "deasna-16osd-pswl-s0.02-r12345" in names
    assert "lair62b-20osd-consolidate-s0.02-r54321" in names
    assert len(names) == 96


def test_paper_grid_recoverable_by_policy_restriction():
    # The paper-grid benchmark pins the grid to the paper's four policies; that restriction
    # must keep reproducing the paper's 64-config grid exactly.
    grid = default_grid(policies=("baseline", "cdf", "hdf", "cmt"))
    assert len(grid) == 64  # 4 workloads x 2 cluster sizes x 4 policies x 2 seeds


def test_cold_then_warm_identical_results(tmp_path):
    grid = tiny_grid()
    cold = sweep(grid, cache_dir=tmp_path, workers=1)
    assert cold.simulated == len(grid)
    assert cold.cache_hits == 0
    warm = sweep(grid, cache_dir=tmp_path, workers=1)
    assert warm.simulated == 0
    assert warm.cache_hits == len(grid)
    assert warm.records == cold.records
    # Both read the same cache, so check it against a fresh simulation.
    fresh = sweep(grid, cache_dir=None, workers=1)
    assert list(warm.iter_results()) == fresh.records


def test_force_resimulates(tmp_path):
    grid = tiny_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    forced = sweep(grid, cache_dir=tmp_path, workers=1, force=True)
    assert forced.simulated == len(grid)
    assert forced.cache_hits == 0


def test_parallel_matches_inline(tmp_path):
    grid = tiny_grid()
    inline = sweep(grid, cache_dir=tmp_path / "a", workers=1)
    pooled = sweep(grid, cache_dir=tmp_path / "b", workers=2)
    assert inline.records == pooled.records
    assert list(inline.iter_results()) == list(pooled.iter_results())


def test_no_cache_mode(tmp_path, monkeypatch):
    # Uncached, nothing is written anywhere: not even the default cache
    # directory under the working directory.
    monkeypatch.chdir(tmp_path)
    grid = tiny_grid()[:2]
    res = sweep(grid, cache_dir=None, workers=1)
    assert res.simulated == 2
    assert list(tmp_path.iterdir()) == []


def test_sweep_result_rejects_incomplete_results(tmp_path):
    grid = tiny_grid()[:1]
    ok = sweep(grid, cache_dir=tmp_path, workers=1)
    with pytest.raises(TypeError, match="non-dict entries at indices \\[1\\]"):
        SweepResult(
            records=[ok.records[0], None],
            cache_hits=0,
            cache_misses=2,
            cache_invalidated=0,
            simulated=2,
        )


def test_results_in_config_order(tmp_path):
    grid = tiny_grid()
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    for cfg, record in zip(grid, res.records):
        assert record["config"] == cfg.cache_name()
    for cfg, metrics in zip(grid, res.iter_results()):
        assert metrics["workload"] == cfg.workload
        assert metrics["policy"] == cfg.policy
        assert metrics["num_osds"] == cfg.num_osds


def poisoned_config(seed=999) -> SimConfig:
    """A config that validates in the parent but blows up in the worker.

    Bypassing the frozen dataclass lets the bad workload name survive until
    ``SimConfig.from_dict`` re-validates it inside the worker process --
    simulating a config whose simulation dies mid-sweep.
    """
    cfg = SimConfig(
        workload="deasna", num_osds=4, policy="baseline", seed=seed, **TINY
    )
    object.__setattr__(cfg, "workload", "poisoned")
    return cfg


def test_interrupted_pool_sweep_keeps_completed_work(tmp_path):
    # Satellite fix: results are cached AS THEY LAND, so a poisoned config
    # does not throw away the completed configs' work.
    good = tiny_grid()
    grid = [*good, poisoned_config()]
    with pytest.raises(ValueError, match="unknown workload 'poisoned'"):
        sweep(grid, cache_dir=tmp_path, workers=2)
    # Every good config's result survived into the cache...
    probe = ResultCache(tmp_path)
    assert all(probe.load(cfg) is not None for cfg in good)
    # ...so re-running the good grid is a pure warm read.
    warm = sweep(good, cache_dir=tmp_path, workers=2)
    assert warm.simulated == 0
    assert warm.cache_hits == len(good)


def test_interrupted_inline_sweep_keeps_earlier_work(tmp_path):
    first, last = tiny_grid()[:2]
    grid = [first, poisoned_config(), last]
    with pytest.raises(ValueError, match="unknown workload 'poisoned'"):
        sweep(grid, cache_dir=tmp_path, workers=1)
    probe = ResultCache(tmp_path)
    assert probe.load(first) is not None  # completed before the poison
    assert probe.load(last) is None       # never reached (inline raises at once)


def test_progress_line_renders_and_closes():
    stream = io.StringIO()
    meter = ProgressLine(total=2, enabled=True, stream=stream, min_interval=0.0)
    meter.advance(1000)
    meter.advance(1000)
    meter.close()
    out = stream.getvalue()
    assert "[1/2]" in out and "[2/2]" in out
    assert "req/s" in out and "eta" in out
    assert out.endswith("\n")


def test_progress_line_disabled_writes_nothing():
    stream = io.StringIO()
    meter = ProgressLine(total=5, enabled=False, stream=stream)
    meter.advance(100)
    meter.close()
    assert stream.getvalue() == ""


def test_sweep_progress_smoke(tmp_path, capsys):
    grid = tiny_grid()[:2]
    res = sweep(grid, cache_dir=tmp_path, workers=1, progress=True)
    assert res.simulated == 2
    err = capsys.readouterr().err
    assert f"[{len(grid)}/{len(grid)}]" in err


# ---------------------------------------------------------------------------
# Result transport: cached workers store full metrics and return slim
# summaries; uncached workers return full metrics.


def test_stream_summaries_match_eager_results(tmp_path):
    grid = tiny_grid()
    eager = sweep(grid, cache_dir=None, workers=1)
    cached = sweep(grid, cache_dir=tmp_path, workers=1)
    assert cached.simulated == len(grid)
    for cfg, slim, full in zip(grid, cached.records, eager.records):
        assert slim["config"] == cfg.cache_name()
        for key in SUMMARY_KEYS:
            assert slim[key] == full[key]
        assert "per_osd_wear" not in slim  # heavy payload never crosses the pool
    # Lazy reloads return the full metrics, in input order, bit-equal to the
    # uncached run.
    assert list(cached.iter_results()) == eager.records
    assert cached.total_requests == eager.total_requests


def test_stream_warm_probe_summarizes_cache_hits(tmp_path):
    grid = tiny_grid()
    cold = sweep(grid, cache_dir=tmp_path, workers=1)
    warm = sweep(grid, cache_dir=tmp_path, workers=1)
    assert warm.cache_hits == len(grid) and warm.simulated == 0
    slim_keys = {"config", "config_hash", *SUMMARY_KEYS}
    assert all(set(r) == slim_keys for r in warm.records)
    assert warm.records == cold.records


def test_stream_interrupted_sweep_resumes_from_worker_spills(tmp_path):
    # Workers store metrics themselves, so a poisoned config mid-pool loses
    # nothing, the re-run is a pure warm probe, and what the workers stored
    # is the full result.
    good = tiny_grid()
    grid = [*good, poisoned_config()]
    with pytest.raises(ValueError, match="unknown workload 'poisoned'"):
        sweep(grid, cache_dir=tmp_path, workers=2)
    resumed = sweep(good, cache_dir=tmp_path, workers=2)
    assert resumed.simulated == 0 and resumed.cache_hits == len(good)
    assert list(resumed.iter_results()) == sweep(good, cache_dir=None, workers=1).records


def test_stream_matches_eager_across_pool_boundary(tmp_path):
    grid = tiny_grid()
    pooled = sweep(grid, cache_dir=tmp_path, workers=2)
    inline = sweep(grid, cache_dir=None, workers=1)
    assert list(pooled.iter_results()) == inline.records


def test_uncached_pool_matches_cached_pool(tmp_path, monkeypatch):
    # Uncached, full metrics cross the pool; cached, they go through the
    # workers' cache stores.  Both transports carry the same results.
    monkeypatch.chdir(tmp_path)
    grid = tiny_grid()
    uncached = sweep(grid, cache_dir=None, workers=2)
    assert list(tmp_path.iterdir()) == []
    cached = sweep(grid, cache_dir=tmp_path / "c", workers=2)
    assert uncached.simulated == cached.simulated == len(grid)
    assert list(uncached.iter_results()) == list(cached.iter_results())


def test_stream_iter_results_raises_when_cache_evicted(tmp_path):
    grid = tiny_grid()[:1]
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    for p in tmp_path.rglob("*"):
        if p.is_file():
            p.unlink()
    with pytest.raises(RuntimeError, match="missing from"):
        list(res.iter_results())


def test_stream_smoke_large_grid_parent_holds_only_summaries(tmp_path):
    # The 512-config memory-bound smoke: every parent-side record is a slim
    # summary (a handful of scalars), so the parent's footprint scales with
    # the grid count alone, never with per-config metrics size.
    grid = default_grid(
        workloads=("deasna",),
        osds=(4,),
        policies=("baseline",),
        seeds=range(512),
        epochs=2,
        requests_per_epoch=64,
        chunks_per_osd=4,
    )
    assert len(grid) == 512
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert res.simulated == 512
    slim_keys = {"config", "config_hash", *SUMMARY_KEYS}
    assert all(set(r) == slim_keys for r in res.records)
    # Spot-check one lazy reload round-trips to full metrics.
    full = next(res.iter_results())
    assert "per_osd_wear" in full and full["total_requests"] == 2 * 64


def test_sweep_timings_attached_when_traced(tmp_path):
    from edm.obs import Tracer

    grid = tiny_grid()[:2]
    untraced = sweep(grid, cache_dir=tmp_path / "a", workers=1)
    assert untraced.timings is None
    traced = sweep(grid, cache_dir=tmp_path / "b", workers=1, tracer=Tracer())
    assert traced.timings is not None
    assert "sweep.cache_probe" in traced.timings


def test_worker_processes_inherit_parent_log_level(tmp_path, capfd):
    """Satellite fix: -v/--log-level must reach the worker processes.  Each
    worker reconfigures logging from the level the parent captured at task
    build time, so DEBUG shows per-config worker lines and WARNING stays
    silent -- under spawn as well as fork."""
    import logging

    from edm.obs import configure_logging

    grid = tiny_grid()[:2]
    try:
        configure_logging(logging.DEBUG)
        sweep(grid, cache_dir=tmp_path / "dbg", workers=2)
        assert "worker pid" in capfd.readouterr().err
        configure_logging(logging.WARNING)
        sweep(grid, cache_dir=tmp_path / "quiet", workers=2)
        assert "worker pid" not in capfd.readouterr().err
    finally:
        configure_logging(logging.WARNING)
