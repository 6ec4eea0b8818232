"""The shared file formats: the run log's JSONL lines, and atomic writes."""

import functools
import json
import os

import pytest

from edm.files import NUMBER, RecordSchema, atomic_write, read_jsonl
from edm.obs import runlog
from edm.obs.decisions import Decision, DecisionRecorder


def writer(path, monkeypatch):
    monkeypatch.setattr(runlog.time, "time", lambda: 1.5)
    monkeypatch.setattr(runlog.os, "getpid", lambda: 42)
    return runlog.RunLogWriter(path, sweep_id="abc")


def write_sweep_start(path, monkeypatch):
    writer(path, monkeypatch).emit("sweep_start", configs=2, pending=1)


def write_decision(path, monkeypatch):
    decision = Decision(
        epoch=3, trigger="threshold", policy="cmt", chunk=5, src=0, dst=2,
        candidates=(1, 2), terms={"load": (0.5, 0.25)}, scores=(0.5, 0.25),
    )
    emit = functools.partial(
        writer(path, monkeypatch).emit, "decision", run_id="r1", config="cfg"
    )
    DecisionRecorder(emit=emit).on_decision(None, decision)


def write_span(path, monkeypatch):
    span = {"name": "simulate.kernel", "ts": 1.25, "dur": 0.25, "pid": 42, "tid": 7}
    writer(path, monkeypatch).emit_all("span", [span], run_id="r1", config="cfg")


#: One pinned line per record type of the one run log ("runlog": its
#: sweep_start record); a span's ts is its own start, not the write time.
LINES = {
    "runlog": (
        write_sweep_start,
        '{"event":"sweep_start","schema":4,"ts":1.5,"sweep_id":"abc","pid":42,'
        '"configs":2,"pending":1}',
    ),
    "decision": (
        write_decision,
        '{"event":"decision","schema":4,"ts":1.5,"sweep_id":"abc","pid":42,'
        '"run_id":"r1","config":"cfg","epoch":3,"trigger":"threshold","policy":"cmt",'
        '"chunk":5,"src":0,"dst":2,"candidates":[1,2],"terms":{"load":[0.5,0.25]},'
        '"scores":[0.5,0.25]}',
    ),
    "span": (
        write_span,
        '{"event":"span","schema":4,"ts":1.25,"sweep_id":"abc","pid":42,'
        '"run_id":"r1","config":"cfg","name":"simulate.kernel","dur":0.25,"tid":7}',
    ),
}


@pytest.mark.parametrize("log", sorted(LINES))
def test_each_log_writes_one_pinned_line(log, tmp_path, monkeypatch):
    write, line = LINES[log]
    path = tmp_path / "nested" / f"{log}.jsonl"
    write(path, monkeypatch)
    assert path.read_text(encoding="utf-8") == line + "\n"
    assert runlog.read_run_log(path) == [json.loads(line)]


SCHEMA = RecordSchema({"name": str, "ts": NUMBER, "any": object}, version=2)


def test_record_schema_problems():
    good = {"name": "a", "ts": 1, "any": None}
    assert SCHEMA.problems(good) == []
    assert SCHEMA.problems({**good, "schema": 2}) == []
    assert SCHEMA.problems({**good, "schema": 3}) == ["schema 3 newer than supported 2"]
    assert SCHEMA.problems({**good, "schema": True}) == ["schema True is not an int"]
    assert SCHEMA.problems({"ts": True}) == [
        "missing field 'name'", "missing field 'any'", "ts is not a number",
    ]
    assert SCHEMA.problems(["a"]) == ["record is list, not dict"]


def test_read_jsonl_strict_names_the_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"name":"a","ts":1,"any":0}\n\n{"name":1,"ts":1,"any":0}\n{oops\n')
    with pytest.raises(ValueError, match=r"log.jsonl:3: name is not a string"):
        read_jsonl(path, SCHEMA.problems)
    assert read_jsonl(path, SCHEMA.problems, strict=False) == [{"name": "a", "ts": 1, "any": 0}]


def test_atomic_write_replaces_or_leaves_nothing(tmp_path):
    path = tmp_path / "sub" / "out.bin"
    assert atomic_write(path, lambda f: f.write(b"one")) == path
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask  # as a plain open() makes it

    def torn(f):
        f.write(b"torn")
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        atomic_write(path, torn)
    assert path.read_bytes() == b"one"
    assert [p.name for p in path.parent.iterdir()] == ["out.bin"]
