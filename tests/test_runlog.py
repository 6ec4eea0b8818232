"""Run-log JSONL: schema round-trip, worker emission, sweep-level records."""

import json
import os

import pytest

from edm.cli import main
from edm.config import ENGINE_VERSION, config_hash
from edm.files import append_jsonl
from edm.obs import runlog
from edm.obs import RUNLOG_SCHEMA_VERSION, RunLogWriter, read_run_log, validate_record
from edm.sweep import default_grid, sweep

TINY = dict(epochs=16, requests_per_epoch=256, chunks_per_osd=8)


def tiny_grid(n_policies=2):
    return default_grid(
        workloads=("deasna",),
        osds=(4,),
        policies=("baseline", "cmt")[:n_policies],
        seeds=(1,),
        **TINY,
    )


def test_writer_round_trip(tmp_path):
    path = tmp_path / "log.jsonl"
    w = RunLogWriter(path, sweep_id="abc123")
    w.emit("sweep_start", configs=4, pending=2)
    w.emit(
        "run_start",
        run_id="r1",
        config="deasna-4osd-cmt-s0.02-r1",
        config_hash="h" * 64,
        engine_version=ENGINE_VERSION,
    )
    w.emit(
        "run_end",
        run_id="r1",
        config="deasna-4osd-cmt-s0.02-r1",
        config_hash="h" * 64,
        engine_version=ENGINE_VERSION,
        wall_s=0.5,
        total_requests=4096,
        requests_per_sec=8192.0,
        timings={"simulate.routing": {"count": 16, "total_s": 0.1, "mean_s": 0.00625}},
    )
    w.emit(
        "sweep_end",
        wall_s=1.0,
        cache_hits=2,
        cache_misses=2,
        cache_invalidated=0,
        simulated=2,
        timings={},
    )
    records = read_run_log(path)
    assert [r["event"] for r in records] == [
        "sweep_start", "run_start", "run_end", "sweep_end",
    ]
    assert all(r["sweep_id"] == "abc123" for r in records)
    assert all(r["pid"] == os.getpid() for r in records)
    assert all(validate_record(r) == [] for r in records)


def test_emit_all_writes_one_batch_in_one_append(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    w = RunLogWriter(path, sweep_id="s")
    batches = []
    monkeypatch.setattr(
        runlog, "append_jsonl",
        lambda p, records: batches.append(records) or append_jsonl(p, records),
    )
    rows = [{"name": f"s{i}", "ts": 10.0 + i, "dur": 0.5, "tid": 1} for i in range(3)]
    records = w.emit_all("span", rows, run_id="r", config="c")
    assert batches == [records]  # one append_jsonl call: one write
    assert read_run_log(path) == records
    # Each row keeps its own ts; the batch fields land on every record.
    assert [r["ts"] for r in records] == [10.0, 11.0, 12.0]
    assert all(r["run_id"] == "r" and r["config"] == "c" for r in records)
    assert w.emit_all("span", []) == []


def test_emit_rejects_unknown_event(tmp_path):
    w = RunLogWriter(tmp_path / "log.jsonl")
    with pytest.raises(ValueError, match="unknown run-log event"):
        w.emit("bogus_event")


def test_validate_record_flags_missing_fields():
    problems = validate_record({"event": "run_end", "ts": 1.0, "sweep_id": "s", "pid": 1})
    assert any("wall_s" in p for p in problems)
    assert any("timings" in p for p in problems)
    assert validate_record({"event": "nope"}) == ["unknown event 'nope'"]
    assert validate_record([1, 2]) == ["record is list, not dict"]


def test_every_record_is_schema_stamped(tmp_path):
    path = tmp_path / "log.jsonl"
    w = RunLogWriter(path, sweep_id="s")
    rec = w.emit("sweep_start", configs=1, pending=1)
    assert rec["schema"] == RUNLOG_SCHEMA_VERSION
    assert all(r["schema"] == RUNLOG_SCHEMA_VERSION for r in read_run_log(path))


def test_validate_rejects_missing_or_bad_schema():
    base = {"event": "sweep_start", "ts": 1.0, "sweep_id": "s", "pid": 1,
            "configs": 1, "pending": 1}
    assert any("schema" in p for p in validate_record(base))  # missing
    assert validate_record({**base, "schema": RUNLOG_SCHEMA_VERSION}) == []
    assert validate_record({**base, "schema": "2"}) == [
        "sweep_start: schema '2' is not an int"
    ]
    assert validate_record({**base, "schema": True}) == [
        "sweep_start: schema True is not an int"
    ]


def test_forward_compat_skips_newer_schema_records(tmp_path):
    """A reader older than the writer skips records it cannot understand
    instead of misparsing them -- and strict mode refuses them loudly."""
    path = tmp_path / "log.jsonl"
    w = RunLogWriter(path, sweep_id="s")
    w.emit("sweep_start", configs=1, pending=1)
    future = {**w.emit("sweep_start", configs=2, pending=2),
              "schema": RUNLOG_SCHEMA_VERSION + 1,
              "some_field_from_the_future": [1, 2, 3]}
    with open(path, "a") as f:
        f.write(json.dumps(future) + "\n")
    assert any(
        "newer than supported" in p for p in validate_record(future)
    )
    with pytest.raises(ValueError, match="newer than supported"):
        read_run_log(path)
    survivors = read_run_log(path, strict=False)
    assert [r["configs"] for r in survivors] == [1, 2]


def test_read_strict_raises_on_corrupt_line(tmp_path):
    path = tmp_path / "log.jsonl"
    RunLogWriter(path, sweep_id="s").emit("sweep_start", configs=1, pending=1)
    with open(path, "a") as f:
        f.write("{not json\n")
    with pytest.raises(ValueError, match="not JSON"):
        read_run_log(path)
    assert len(read_run_log(path, strict=False)) == 1


def test_sweep_emits_one_run_pair_per_simulated_config(tmp_path):
    grid = tiny_grid()
    path = tmp_path / "run.jsonl"
    sweep(grid, cache_dir=tmp_path / "c", workers=1, run_log=path)
    records = read_run_log(path)
    events = [r["event"] for r in records]
    assert events[0] == "sweep_start"
    assert events[-1] == "sweep_end"
    starts = [r for r in records if r["event"] == "run_start"]
    ends = [r for r in records if r["event"] == "run_end"]
    assert len(starts) == len(ends) == len(grid)
    # run_end records carry identity, throughput, and span timings.
    by_config = {r["config"]: r for r in ends}
    for cfg in grid:
        rec = by_config[cfg.cache_name()]
        assert rec["config_hash"] == config_hash(cfg)
        assert rec["engine_version"] == ENGINE_VERSION
        assert rec["wall_s"] > 0
        assert rec["total_requests"] == TINY["epochs"] * TINY["requests_per_epoch"]
        assert rec["requests_per_sec"] > 0
        assert "simulate.kernel" in rec["timings"]
    # run ids pair starts with ends one-to-one.
    assert {r["run_id"] for r in starts} == {r["run_id"] for r in ends}
    # sweep_end carries the cache counters and parent-side stage spans.
    end = records[-1]
    assert end["simulated"] == len(grid)
    assert end["cache_hits"] == 0
    assert "sweep.cache_probe" in end["timings"]


def test_sweep_run_log_records_come_from_worker_processes(tmp_path):
    grid = tiny_grid()
    path = tmp_path / "run.jsonl"
    sweep(grid, cache_dir=tmp_path / "c", workers=2, run_log=path)
    records = read_run_log(path)
    run_pids = {r["pid"] for r in records if r["event"].startswith("run_")}
    sweep_pids = {r["pid"] for r in records if r["event"].startswith("sweep_")}
    assert sweep_pids == {os.getpid()}
    assert run_pids and os.getpid() not in run_pids  # emitted inside workers
    # Every line parses as valid JSON on its own (concurrent appends intact).
    for line in path.read_text().splitlines():
        assert validate_record(json.loads(line)) == []


def test_warm_sweep_logs_no_run_records(tmp_path):
    grid = tiny_grid()
    sweep(grid, cache_dir=tmp_path / "c", workers=1)
    path = tmp_path / "warm.jsonl"
    res = sweep(grid, cache_dir=tmp_path / "c", workers=1, run_log=path)
    assert res.cache_hits == len(grid)
    events = [r["event"] for r in read_run_log(path)]
    assert events == ["sweep_start", "sweep_end"]


def test_cached_metrics_never_contain_timings(tmp_path):
    grid = tiny_grid(n_policies=1)
    traced = sweep(grid, cache_dir=tmp_path / "c", workers=1, run_log=tmp_path / "l.jsonl")
    warm = sweep(grid, cache_dir=tmp_path / "c", workers=1)
    plain = sweep(grid, cache_dir=None, workers=1)
    assert all("timings" not in m for m in traced.iter_results())
    assert list(traced.iter_results()) == plain.records
    assert warm.records == traced.records


RUN_FLAGS = dict(
    workload="deasna", osds="8", policy="cmt", seed="7", epochs="32", requests="512",
    faults="fail:1@8;slow:2@4x0.5", service="rate:800;queue:64",
)
#: Fields that differ between any two runs of one config.
VOLATILE = {"ts", "pid", "sweep_id", "run_id", "wall_s", "requests_per_sec", "timings"}


def stable(records, events=("run_start", "fault", "service", "run_end")):
    return [
        {k: v for k, v in r.items() if k not in VOLATILE}
        for r in records if r["event"] in events
    ]


def test_run_and_sweep_write_the_same_run_records(tmp_path, capsys):
    """One function brackets every logged run: `edm run --run-log` and a
    one-config sweep of the same faulted, serviced config write equal
    run_start, fault, service and run_end records."""
    run_log, sweep_log = tmp_path / "run.jsonl", tmp_path / "sweep.jsonl"
    argv = ["run", "--run-log", str(run_log)]
    for flag, value in RUN_FLAGS.items():
        argv += [f"--{flag}", value]
    assert main(argv) == 0
    capsys.readouterr()
    (cfg,) = default_grid(
        workloads=("deasna",), osds=(8,), policies=("cmt",), seeds=(7,),
        epochs=32, requests_per_epoch=512,
        faults=(RUN_FLAGS["faults"],), service=(RUN_FLAGS["service"],),
    )
    sweep([cfg], cache_dir=None, workers=1, run_log=sweep_log)
    ran, swept = read_run_log(run_log), read_run_log(sweep_log)
    assert [r["event"] for r in stable(ran)] == [
        "run_start", "fault", "fault", "service", "run_end",
    ]
    assert stable(ran) == stable(swept)
    assert ran[0]["config"] == cfg.cache_name()
    # Every record of the run carries its one run id.
    assert len({r["run_id"] for r in ran}) == 1
    # `edm run --run-log` always records spans; the untraced sweep does not.
    assert any(r["event"] == "span" for r in ran)
    assert not any(r["event"] == "span" for r in swept)
