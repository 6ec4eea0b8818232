"""The shared file formats: the JSONL line each log writes, and atomic writes."""

import json
import os

import pytest

from edm.files import NUMBER, RecordSchema, atomic_write, read_jsonl
from edm.obs import runlog
from edm.obs.decisions import Decision, DecisionRecorder, read_decision_log
from edm.obs.trace_export import read_span_events, write_span_events


def write_run_log(path, monkeypatch):
    monkeypatch.setattr(runlog.time, "time", lambda: 1.5)
    monkeypatch.setattr(runlog.os, "getpid", lambda: 42)
    runlog.RunLogWriter(path, sweep_id="abc").emit("sweep_start", configs=2, pending=1)
    return runlog.read_run_log


def write_decision(path, monkeypatch):
    decision = Decision(
        epoch=3, trigger="threshold", policy="cmt", chunk=5, src=0, dst=2,
        candidates=(1, 2), terms={"load": (0.5, 0.25)}, scores=(0.5, 0.25),
    )
    DecisionRecorder(path=path).on_decision(None, decision)
    return read_decision_log


class OneSpan:
    def events(self):
        return [{"name": "simulate.kernel", "ts": 1.5, "dur": 0.25, "pid": 42, "tid": 7}]


def write_span(path, monkeypatch):
    write_span_events(OneSpan(), path, label="run")
    return read_span_events


LINES = {
    "runlog": (
        write_run_log,
        '{"event":"sweep_start","schema":3,"ts":1.5,"sweep_id":"abc","pid":42,'
        '"configs":2,"pending":1}',
    ),
    "decision": (
        write_decision,
        '{"schema":1,"epoch":3,"trigger":"threshold","policy":"cmt","chunk":5,'
        '"src":0,"dst":2,"candidates":[1,2],"terms":{"load":[0.5,0.25]},'
        '"scores":[0.5,0.25]}',
    ),
    "span": (
        write_span,
        '{"name":"simulate.kernel","ts":1.5,"dur":0.25,"pid":42,"tid":7,"label":"run"}',
    ),
}


@pytest.mark.parametrize("log", sorted(LINES))
def test_each_log_writes_one_pinned_line(log, tmp_path, monkeypatch):
    write, line = LINES[log]
    path = tmp_path / "nested" / f"{log}.jsonl"
    read = write(path, monkeypatch)
    assert path.read_text(encoding="utf-8") == line + "\n"
    assert read(path) == [json.loads(line)]


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
