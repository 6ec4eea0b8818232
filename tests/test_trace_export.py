"""Span timeline export: event recording, run-log span records, Perfetto JSON."""

import json
import os

import pytest

from conftest import cfg_factory
from edm.cli import main
from edm.engine.core import simulate
from edm.obs import RUNLOG_SCHEMA_VERSION, RunLogWriter, Tracer, read_run_log, validate_record
from edm.obs.trace_export import to_chrome_trace
from edm.sweep import default_grid, sweep


def spans(path, strict=True):
    return [r for r in read_run_log(path, strict) if r["event"] == "span"]


def nested_tracer():
    tr = Tracer(record_events=True)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    return tr


# --- Tracer event recording --------------------------------------------------


def test_tracer_records_individual_occurrences():
    tr = nested_tracer()
    events = tr.events()
    assert [e["name"] for e in events] == ["outer", "outer.inner", "outer.inner"]
    assert all(e["pid"] == os.getpid() for e in events)
    assert all(e["dur"] >= 0 for e in events)
    # Start-ordered, and children start within the parent.
    outer, in1, in2 = events
    assert outer["ts"] <= in1["ts"] <= in2["ts"]
    assert in2["ts"] + in2["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    # Aggregation is unchanged by event recording.
    assert tr.summary()["outer.inner"]["count"] == 2


def test_tracer_without_recording_has_no_events():
    tr = Tracer()
    with tr.span("a"):
        pass
    assert tr.events() == []


# --- run-log round-trip ----------------------------------------------------


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "spans.jsonl"
    writer = RunLogWriter(path)
    tracer = nested_tracer()
    records = writer.emit_all("span", tracer.events(), config="runA")
    assert len(records) == 3
    # Appends: a second batch lands in the same file.
    writer.emit_all("span", nested_tracer().events())
    events = spans(path)
    assert len(events) == 6
    assert all(validate_record(e) == [] for e in events)
    assert {e.get("config") for e in events} == {"runA", None}
    # Each span's ts is its own start, not the write time.
    assert [e["ts"] for e in events[:3]] == [e["ts"] for e in tracer.events()]


def test_read_strictness(tmp_path):
    path = tmp_path / "spans.jsonl"
    RunLogWriter(path).emit_all("span", nested_tracer().events())
    with open(path, "a") as f:
        f.write("{broken\n")
        late = {**spans(path)[0], "ts": "late"}
        f.write(json.dumps(late) + "\n")
    with pytest.raises(ValueError, match="not JSON"):
        read_run_log(path)
    assert len(spans(path, strict=False)) == 3


def test_validate_span_event():
    good = {
        "event": "span", "schema": RUNLOG_SCHEMA_VERSION, "ts": 1.0, "sweep_id": "s",
        "name": "a", "dur": 0.5, "pid": 1, "tid": 2,
    }
    assert validate_record(good) == []
    assert validate_record("x") == ["record is str, not dict"]
    assert any("missing" in p for p in validate_record({"event": "span", "name": "a"}))
    assert any("ts" in p for p in validate_record({**good, "ts": True}))
    assert any("pid" in p for p in validate_record({**good, "pid": 1.5}))
    assert any("dur" in p for p in validate_record({**good, "dur": "long"}))
    assert any("newer" in p for p in validate_record({**good, "schema": RUNLOG_SCHEMA_VERSION + 1}))


# --- Chrome trace conversion -------------------------------------------------


def test_to_chrome_trace_shape(tmp_path):
    path = tmp_path / "spans.jsonl"
    RunLogWriter(path).emit_all("span", nested_tracer().events(), config="cfgA")
    trace = to_chrome_trace(spans(path))
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    ms = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert len(xs) == 3 and len(ms) == 1
    for e in xs:
        assert e["cat"] == "edm"
        assert e["ts"] >= 0 and e["dur"] >= 0  # microseconds, rebased
        assert e["args"]["config"] == "cfgA"
    assert ms[0]["name"] == "process_name"
    # Timestamps are rebased to the earliest event.
    assert min(e["ts"] for e in xs) == 0


def test_to_chrome_trace_empty():
    assert to_chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


def test_chrome_trace_remaps_tids_per_process():
    events = [
        {"name": "a", "ts": 0.0, "dur": 1.0, "pid": 10, "tid": 123456789},
        {"name": "b", "ts": 1.0, "dur": 1.0, "pid": 10, "tid": 123456789},
        {"name": "c", "ts": 2.0, "dur": 1.0, "pid": 11, "tid": 987654321},
    ]
    xs = [e for e in to_chrome_trace(events)["traceEvents"] if e["ph"] == "X"]
    assert [e["tid"] for e in xs] == [0, 0, 0]
    assert {e["pid"] for e in xs} == {10, 11}


# --- end-to-end: simulate / sweep / CLI --------------------------------------


def test_traced_run_is_bit_identical_and_covers_simulate_phases():
    cfg = cfg_factory()
    plain = simulate(cfg)
    tr = Tracer(record_events=True)
    traced = simulate(cfg, tracer=tr)
    timings = traced.pop("timings")
    assert traced == plain
    names = {e["name"] for e in tr.events()}
    assert any(n.startswith("simulate.") for n in names)
    assert set(timings) == names  # every aggregated path has its occurrences


def test_sweep_trace_merges_parent_and_worker_events(tmp_path):
    grid = default_grid(
        workloads=("deasna",), osds=(4,), policies=("baseline", "cmt"), seeds=(1,),
        epochs=8, requests_per_epoch=128, chunks_per_osd=8,
    )
    path = tmp_path / "runs.jsonl"
    sweep(grid, cache_dir=tmp_path / "c", workers=2, run_log=path, trace=True)
    events = spans(path)
    configs = {e.get("config") for e in events}
    assert None in configs  # parent stages
    assert {cfg.cache_name() for cfg in grid} <= configs  # one batch per config
    pids = {e["pid"] for e in events}
    assert os.getpid() in pids and len(pids) >= 2  # parent + workers
    names = {e["name"] for e in events}
    assert "sweep.cache_probe" in names
    assert any(n.startswith("simulate.") for n in names)
    # A run's spans sit inside its run_start / run_end bracket.
    records = read_run_log(path)
    for cfg in grid:
        mine = [r["event"] for r in records if r.get("config") == cfg.cache_name()]
        assert mine[0] == "run_start" and mine[-1] == "run_end"
        assert set(mine[1:-1]) == {"span"}


def test_sweep_trace_needs_a_run_log(tmp_path):
    grid = default_grid(workloads=("deasna",), osds=(4,), policies=("cmt",), seeds=(1,))
    with pytest.raises(ValueError, match="run_log"):
        sweep(grid, cache_dir=tmp_path / "c", workers=1, trace=True)
    assert not (tmp_path / "c").exists()


def test_cli_sweep_trace_without_run_log_exits_2(tmp_path, capsys):
    assert main([
        "sweep", "--workloads", "deasna", "--osds", "4", "--policies", "cmt",
        "--seeds", "1", "--cache-dir", str(tmp_path / "c"), "--trace",
    ]) == 2
    assert "--run-log" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_cli_run_trace_then_export(tmp_path, capsys):
    """Acceptance: the exported JSON is a valid trace_event document with
    ph "X" events matching simulate's span names."""
    log = tmp_path / "runs.jsonl"
    assert (
        main(
            [
                "run", "--workload", "deasna", "--osds", "4",
                "--epochs", "8", "--requests", "128",
                "--run-log", str(log),
            ]
        )
        == 0
    )
    metrics = json.loads(capsys.readouterr().out)
    assert "timings" not in metrics  # stdout JSON keeps the untraced shape
    assert main(["trace", "export", str(log)]) == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path.endswith(".json")
    trace = json.load(open(out_path))
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert xs and all(set(e) >= {"name", "ph", "ts", "dur", "pid", "tid"} for e in xs)
    assert any(e["name"].startswith("simulate.") for e in xs)


def test_cli_trace_export_refuses_overwriting_input(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text("")
    assert main(["trace", "export", str(spans)]) == 2


def test_cli_trace_export_empty_input_errors(tmp_path):
    empty = tmp_path / "spans.jsonl"
    empty.write_text("")
    assert main(["trace", "export", str(empty), "-o", str(tmp_path / "o.json")]) == 1
