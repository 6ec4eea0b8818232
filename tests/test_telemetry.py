"""Telemetry layer: hook ordering, no-op overhead, series shape, round-trips."""

import csv
import json

import numpy as np
import pytest

from edm.config import SCENARIOS, SimConfig
from edm.engine import core
from edm.engine.core import simulate
from edm.service import ServiceRuntime
from edm.sweep import default_grid, series_path, sweep
from edm.telemetry import SERIES_FORMAT_VERSION, Recorder, TimeSeries, TimeSeriesRecorder
from edm.telemetry.plots import migration_cost_mb
from edm.telemetry.timeseries import _ARRAY_FIELDS
from service_reference import reference_block


class EventLog(Recorder):
    """Records every hook invocation for ordering assertions."""

    def __init__(self):
        self.events = []

    def on_run_start(self, cfg, state):
        self.events.append(("start", state.epoch))

    def on_block(self, state, block):
        self.events.append(("block", block.epochs))

    def on_move(self, state, chunks, src, dst, trigger):
        self.events.append(("move", state.epoch, trigger))

    def finalize(self, state, final_load):
        self.events.append(("finalize", state.epoch))
        return self.events


def test_hook_ordering(small_cfg):
    log = EventLog()
    simulate(small_cfg, recorders=(log,))
    events = log.events
    assert events[0] == ("start", 0)
    assert events[-1] == ("finalize", small_cfg.epochs - 1)

    # The blocks partition the run's epochs, in order.
    blocks = [e[1] for e in events if e[0] == "block"]
    assert [epoch for block in blocks for epoch in block] == list(range(small_cfg.epochs))

    # Every round's moves land after the block that ends at its epoch.
    moves = [(i, e[1]) for i, e in enumerate(events) if e[0] == "move"]
    assert moves and all(e[2] == "threshold" for e in events if e[0] == "move")
    ends = {e[1][-1]: i for i, e in enumerate(events) if e[0] == "block"}
    for i, epoch in moves:
        assert (epoch + 1) % small_cfg.migrate_interval == 0
        assert ends[epoch] < i


def test_recorders_do_not_perturb_metrics(small_cfg):
    """A run with recorders attached is bit-for-bit the zero-recorder run."""
    bare = simulate(small_cfg)
    with_recorders = simulate(
        small_cfg, recorders=(TimeSeriesRecorder(), EventLog())
    )
    assert bare == with_recorders


@pytest.mark.parametrize("record_every,expected_epochs", [
    (1, list(range(32))),
    (4, [0, 4, 8, 12, 16, 20, 24, 28, 31]),
    (7, [0, 7, 14, 21, 28, 31]),
    (100, [0, 31]),
])
def test_downsampling_epochs(small_cfg, record_every, expected_epochs):
    rec = TimeSeriesRecorder(record_every=record_every)
    simulate(small_cfg, recorders=(rec,))
    assert rec.series.epoch.tolist() == expected_epochs


def test_series_shapes_and_consistency(small_cfg):
    rec = TimeSeriesRecorder(record_every=4)
    metrics = simulate(small_cfg, recorders=(rec,))
    s = rec.series
    t, n = s.num_samples, small_cfg.num_osds
    assert s.load.shape == s.wear.shape == (t, n)
    for name in ("load_cov", "load_peak_ratio", "wear_cov", "migrations"):
        assert getattr(s, name).shape == (t,)
    assert np.all(np.diff(s.epoch) > 0)
    # Wear is cumulative, final row is true end-of-run state.
    assert np.all(np.diff(s.wear, axis=0) >= 0)
    assert np.allclose(s.wear[-1], metrics["per_osd_wear"])
    assert int(s.migrations.sum()) == metrics["migrations_total"]
    assert s.meta["policy"] == small_cfg.policy
    assert s.meta["record_every"] == 4


def test_full_rate_series_matches_metrics_totals(small_cfg):
    """record_every=1: last interval's moves fold into the final row."""
    rec = TimeSeriesRecorder()
    metrics = simulate(small_cfg, recorders=(rec,))
    s = rec.series
    assert s.num_samples == small_cfg.epochs
    assert int(s.migrations.sum()) == metrics["migrations_total"]
    assert np.allclose(s.wear[-1], metrics["per_osd_wear"])


def test_recorder_reusable_across_runs(small_cfg):
    rec = TimeSeriesRecorder(record_every=2)
    simulate(small_cfg, recorders=(rec,))
    first = rec.series
    simulate(small_cfg, recorders=(rec,))
    assert np.array_equal(first.load, rec.series.load)
    assert first.meta == rec.series.meta


def _cov(x):
    return float(x.std() / x.mean()) if x.size and x.mean() > 0 else 0.0


class LiveColumns(Recorder):
    """Each epoch's derived columns, reduced then and there from the live
    vectors with numpy's own ``mean``/``std``/``max`` (blocks of one)."""

    def on_run_start(self, cfg, state):
        self.rows = {}

    def on_service(self, service):
        self.service = service

    def on_block(self, state, block):
        ((epoch,), (load,)) = block.epochs, block.load
        peak = float(load.max() / load.mean()) if load.mean() > 0 else 0.0
        depth = self.service.depth[state.osd_alive]
        self.rows[epoch] = {
            "load_cov": _cov(load), "load_peak_ratio": peak, "wear_cov": _cov(state.osd_wear),
            "queue_depth_mean": float(depth.mean()), "queue_depth_cov": _cov(depth),
        }


def test_sampled_series_across_scale_out_match_live_reductions(make_cfg, monkeypatch):
    """record_every=3 across an add, a failure and a drain: columns taken
    from blocks of epochs equal the per-epoch reductions of a run in
    blocks of one; the whole series equals the per-request, per-epoch
    service step's."""
    cfg = make_cfg(num_osds=6, epochs=32, service="rate:120;queue:64", faults="fail:3@14",
                   topology="add:2@10/cap:2,rate:240;drain:1@20")
    rec, live = TimeSeriesRecorder(record_every=3), LiveColumns()
    metrics = simulate(cfg, recorders=(rec,))
    with monkeypatch.context() as m:
        m.setattr(core, "EPOCH_BLOCK", 1)
        assert simulate(cfg, recorders=(live,)) == metrics
    s = rec.series
    assert s.epoch.tolist() == [*range(0, 32, 3), 31]
    assert s.osds_total.tolist() == [6] * 4 + [8] * 8
    assert s.queue_depth_mean.max() > 0
    for i, epoch in enumerate(s.epoch.tolist()):
        expected = dict(live.rows[epoch])
        if i == s.num_samples - 1:  # end-of-run wear: after the last migrations
            expected["wear_cov"] = metrics["wear_cov"]
        assert {k: float(getattr(s, k)[i]) for k in expected} == expected, epoch
    monkeypatch.setattr(ServiceRuntime, "on_block", reference_block)
    ref = TimeSeriesRecorder(record_every=3)
    simulate(cfg, recorders=(ref,))
    for k in _ARRAY_FIELDS:
        assert getattr(s, k).tobytes() == getattr(ref.series, k).tobytes(), k


def test_record_every_validation():
    with pytest.raises(ValueError, match="record_every"):
        TimeSeriesRecorder(record_every=0)


def test_finalize_requires_run():
    with pytest.raises(RuntimeError, match="on_run_start"):
        TimeSeriesRecorder().finalize(None, None)


def test_npz_roundtrip(small_cfg, tmp_path):
    rec = TimeSeriesRecorder(record_every=3)
    simulate(small_cfg, recorders=(rec,))
    path = rec.series.save_npz(tmp_path / "series.npz")
    loaded = TimeSeries.load_npz(path)
    assert loaded.meta == rec.series.meta
    assert loaded.meta["format_version"] == SERIES_FORMAT_VERSION
    for name in _ARRAY_FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(rec.series, name)), name


@pytest.mark.parametrize("column", ["osds_total", "alive", "wear", "epoch", None])
def test_npz_missing_column_rejected(small_cfg, tmp_path, column):
    """A file without every current column -- a v4 file lacks ``osds_total``
    -- or in another format with every column -- a v5 file's meta lacks
    ``migrations_total`` -- is rejected with the command that regenerates it."""
    rec = TimeSeriesRecorder(record_every=4)
    simulate(small_cfg, recorders=(rec,))
    meta = {k: v for k, v in rec.series.meta.items() if k != "migrations_total"}
    meta["format_version"] = version = 4 if column else 5
    arrays = {k: getattr(rec.series, k) for k in _ARRAY_FIELDS if k != column}
    path = tmp_path / "old.npz"
    np.savez_compressed(path, meta=np.asarray(json.dumps(meta)), **arrays)
    lacks = rf" is missing \['{column}'\]" if column else ""
    with pytest.raises(ValueError, match=rf"v{version}{lacks};.*edm sweep --timeseries"):
        TimeSeries.load_npz(path)


def test_series_meta_carries_every_scenario_spec(tmp_path):
    """The meta holds each SCENARIOS spec, redundancy too, so figures can
    keep scenarios apart."""
    cfg = SimConfig(num_osds=8, epochs=16, requests_per_epoch=256, chunks_per_osd=8,
                    faults="fail:1@8", endurance="pe:100000", service="rate:80;queue:32",
                    topology="add:2@8", redundancy="rep:2")
    rec = TimeSeriesRecorder(record_every=4)
    simulate(cfg, recorders=(rec,))
    specs = {name: rec.series.meta[name] for name in SCENARIOS}
    assert specs == {name: getattr(cfg, name) for name in SCENARIOS}
    assert all(specs.values())
    loaded = TimeSeries.load_npz(rec.series.save_npz(tmp_path / "series.npz"))
    assert {name: loaded.meta[name] for name in SCENARIOS} == specs


def test_migration_cost_figure_counts_every_move(tmp_path):
    """The figure's migration cost is the metrics dict's: a failure, a
    wear-out and a drain each re-place 64+ chunks, which the threshold-round
    ``migrations`` column does not count."""
    cfg = SimConfig(num_osds=8, epochs=48, seed=7, faults="fail:1@8",
                    endurance="pe:1000000,900@5", topology="drain:2@20")
    rec = TimeSeriesRecorder()
    metrics = simulate(cfg, recorders=(rec,))
    assert metrics["replacement_moves_total"] > 0
    assert metrics["wearout_replacements_total"] > 0
    assert metrics["drain_moves_total"] > 0
    assert rec.series.meta["migrations_total"] == metrics["migrations_total"]
    assert rec.series.migrations.sum() < metrics["migrations_total"]
    loaded = TimeSeries.load_npz(rec.series.save_npz(tmp_path / "series.npz"))
    assert migration_cost_mb(loaded) == metrics["migration_cost_mb"]


def test_csv_and_json_export(small_cfg, tmp_path):
    rec = TimeSeriesRecorder(record_every=8)
    simulate(small_cfg, recorders=(rec,))
    s = rec.series
    csv_path = s.save_csv(tmp_path / "series.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + s.num_samples
    assert lines[0].startswith(
        "epoch,load_cov,load_peak_ratio,wear_cov,migrations,alive,replacements,"
        "remaining_life_min,remaining_life_mean,"
        "queue_depth_mean,queue_depth_cov,service_lat_mean,osds_total"
    )
    assert lines[0].count(",") == 12 + 2 * s.num_osds
    # Every cell is the array value, written as its Python repr.
    header, *rows = csv.reader(lines)
    assert len(rows) == s.num_samples
    for t, row in enumerate(rows):
        assert len(row) == len(header)
        cells = dict(zip(header, row))
        for name in _ARRAY_FIELDS:
            values = getattr(s, name)[t]
            if values.ndim:
                got = [cells[f"{name}_osd{i}"] for i in range(s.num_osds)]
                assert got == [repr(v) for v in values.tolist()], (t, name)
            else:
                assert cells[name] == repr(values.item()), (t, name)

    json_path = s.save_json(tmp_path / "series.json")
    payload = json.loads(json_path.read_text())
    assert list(payload) == ["meta", *_ARRAY_FIELDS]
    assert payload["meta"] == s.meta
    assert payload["epoch"] == s.epoch.tolist()
    assert payload["wear"] == s.wear.tolist()
    for name in _ARRAY_FIELDS:
        assert payload[name] == getattr(s, name).tolist(), name


TINY = dict(epochs=16, requests_per_epoch=256, chunks_per_osd=8)


def test_sweep_timeseries_through_process_pool(tmp_path):
    """Workers serialize series to .npz; parent-side load matches inline run."""
    grid = default_grid(
        workloads=("deasna",), osds=(4,), policies=("baseline", "cmt"), seeds=(1,), **TINY
    )
    res = sweep(
        grid,
        cache_dir=tmp_path / "cache",
        workers=2,
        timeseries_dir=tmp_path / "ts",
        record_every=2,
    )
    assert res.simulated == len(grid)
    for cfg in grid:
        path = series_path(tmp_path / "ts", cfg)
        assert path.exists()
        loaded = TimeSeries.load_npz(path)
        rec = TimeSeriesRecorder(record_every=2)
        simulate(cfg, recorders=(rec,))
        assert loaded.meta == rec.series.meta
        assert np.array_equal(loaded.load, rec.series.load)
        assert np.array_equal(loaded.wear, rec.series.wear)


def test_sweep_timeseries_cache_semantics(tmp_path):
    """Warm sweep is a no-op; a deleted .npz forces just that config to rerun."""
    grid = default_grid(
        workloads=("deasna",), osds=(4,), policies=("baseline", "cmt"), seeds=(1,), **TINY
    )
    ts_dir = tmp_path / "ts"
    first = sweep(grid, cache_dir=tmp_path / "c", workers=1, timeseries_dir=ts_dir)
    warm = sweep(grid, cache_dir=tmp_path / "c", workers=1, timeseries_dir=ts_dir)
    assert warm.simulated == 0
    assert warm.records == first.records
    fresh = sweep(grid, cache_dir=None, workers=1)
    assert list(warm.iter_results()) == fresh.records

    series_path(ts_dir, grid[0]).unlink()
    repaired = sweep(grid, cache_dir=tmp_path / "c", workers=1, timeseries_dir=ts_dir)
    assert repaired.simulated == 1
    assert series_path(ts_dir, grid[0]).exists()
    assert repaired.records == first.records
    assert list(repaired.iter_results()) == fresh.records
