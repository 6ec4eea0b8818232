"""Structured JSONL run logs: the one observability log.

One append-only file records everything a run or a sweep did.  ``edm run
--run-log`` and every sweep worker write a ``run_start`` / ``run_end`` pair
per simulated config through :func:`edm.sweep.logged_run` -- emitted *from
inside the worker* that ran it (mirroring the ``.npz`` streaming path, so
the parent never buffers log payloads) -- and a sweep's parent brackets
them with ``sweep_start`` / ``sweep_end``.  Records use the JSONL line
format of :mod:`edm.files`: one JSON object per line, each batch appended
as one ``write``, which keeps concurrent worker appends intact on POSIX
filesystems.

Record schema (all records)::

    event      one of :data:`EVENTS`
    schema     record schema version (int, :data:`RUNLOG_SCHEMA_VERSION`);
               readers reject records missing it and skip records stamped
               newer than they understand (forward compatibility)
    ts         unix wall-clock seconds (float): the write time, or a
               span's own start
    sweep_id   hex id correlating every record of one sweep() call or run
    pid        writing process id

Each event's further fields are in :data:`EVENT_FIELDS`; every record of
a run carries its ``run_id`` and ``config`` (cache name).

* ``sweep_start`` / ``sweep_end``: a sweep's parent, around its runs;
  ``sweep_end`` holds the wall time, the cache counters and the
  parent-side span summary.
* ``run_start`` / ``run_end``: one pair per simulated config;
  ``run_end`` adds ``wall_s``, ``total_requests``, ``requests_per_sec``
  and ``timings`` (the run's span summary).
* ``fault``: each fired fault or wear-out -- ``kind``
  (fail/slow/hiccup/wearout), ``osd``, ``epoch``, ``replaced`` (chunks
  re-placed off a failed OSD).
* ``topology``: each fired add or drain -- ``kind``, ``epoch``,
  ``count`` (drives added; 0 for drains), ``osd`` (drain target; -1 for
  adds), ``moved`` (chunks evacuated) and ``osds_total`` (cluster size
  after the event).
* ``service``: one per serviced run, before its ``run_end`` -- the tail
  latencies ``lat_p50`` / ``lat_p99`` / ``lat_p999``, ``requests`` offered
  and ``dropped``; non-finite percentiles serialize as JSON's ``NaN`` /
  ``Infinity``, which :func:`read_run_log` parses back.
* ``decision``: one per migration destination pick (``edm run --explain
  --run-log``), the fields of :mod:`edm.obs.decisions`, which also gives
  their cross-field check.
* ``span``: one per recorded span occurrence (``edm run --run-log``,
  ``edm sweep --trace --run-log``) -- ``name`` (dotted span path),
  ``dur`` (seconds) and ``tid``; its ``ts`` is the span's wall-clock start.

Use :func:`read_run_log` to parse a file back and :func:`validate_record`
to check any single record against the schema.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path

from edm.files import NUMBER, RecordSchema, append_jsonl, read_jsonl
from edm.obs.decisions import DECISION_FIELDS, _check_decision

#: Bump when the record field set changes incompatibly.  Readers skip (or,
#: in strict mode, reject) records stamped with a *newer* schema than they
#: understand, so old tooling degrades by ignoring future records instead of
#: misparsing them.  v2: the ``schema`` field itself became mandatory.
#: v3: added the ``topology`` event type (scale-out / drain records).
#: v4: added the ``decision`` and ``span`` event types.
RUNLOG_SCHEMA_VERSION = 4

#: Fields every record must carry.
BASE_FIELDS = ("event", "schema", "ts", "sweep_id", "pid")
#: Fields naming the run a record belongs to, and the build that ran it.
_RUN = ("run_id", "config")
_BUILD = (*_RUN, "config_hash", "engine_version")
#: Additional required fields per event type.
EVENT_FIELDS = {
    "sweep_start": ("configs", "pending"),
    "sweep_end": (
        "wall_s", "cache_hits", "cache_misses", "cache_invalidated", "simulated", "timings",
    ),
    "run_start": _BUILD,
    "run_end": (*_BUILD, "wall_s", "total_requests", "requests_per_sec", "timings"),
    "fault": (*_RUN, "kind", "osd", "epoch", "replaced"),
    "topology": (*_RUN, "kind", "epoch", "count", "osd", "moved", "osds_total"),
    "service": (*_RUN, "lat_p50", "lat_p99", "lat_p999", "requests", "dropped"),
    "decision": (*_RUN, *DECISION_FIELDS),
    "span": ("name", "dur", "tid"),
}
EVENTS = tuple(EVENT_FIELDS)

#: Types checked on top of presence, for every event and then per event;
#: every other field accepts any value.
_FIELD_TYPES = {"ts": NUMBER, "timings": dict}
_EVENT_TYPES = {
    "decision": DECISION_FIELDS,
    "span": {"name": str, "dur": NUMBER, "pid": int, "tid": int},
}
_SCHEMAS = {
    event: RecordSchema(
        {
            f: _EVENT_TYPES.get(event, {}).get(f, _FIELD_TYPES.get(f, object))
            for f in BASE_FIELDS + names
        },
        version=RUNLOG_SCHEMA_VERSION,
        check=_check_decision if event == "decision" else None,
    )
    for event, names in EVENT_FIELDS.items()
}


def new_id() -> str:
    """Random 12-hex id for sweeps and runs."""
    return uuid.uuid4().hex[:12]


class RunLogWriter:
    """Appends JSONL records to one file; safe to use from many processes.

    Each :meth:`emit_all` opens the file, writes its whole batch in one
    ``write``, and closes it, so a writer object is cheap to construct per
    worker task and never holds a descriptor across fork boundaries.
    """

    def __init__(self, path: str | os.PathLike, sweep_id: str | None = None):
        self.path = Path(path)
        self.sweep_id = sweep_id if sweep_id is not None else new_id()

    def emit(self, event: str, **fields) -> dict:
        """Write one record; returns the record dict that was written."""
        return self.emit_all(event, (fields,))[0]

    def emit_all(self, event: str, rows, **fields) -> list[dict]:
        """Write one ``event`` record per row, all in one append.

        Each record holds the stamp, then ``fields``, then the row; a row's
        own ``ts`` (a span's start) replaces the write time.  Returns the
        records written.
        """
        if event not in EVENTS:
            raise ValueError(f"unknown run-log event {event!r}, expected one of {EVENTS}")
        stamp = {
            "event": event,
            "schema": RUNLOG_SCHEMA_VERSION,
            "ts": time.time(),
            "sweep_id": self.sweep_id,
            "pid": os.getpid(),
            **fields,
        }
        records = [{**stamp, **row} for row in rows]
        append_jsonl(self.path, records)
        return records


def validate_record(record: dict) -> list[str]:
    """Return a list of schema problems with ``record`` (empty == valid)."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not dict"]
    event = record.get("event")
    if event not in EVENTS:
        return [f"unknown event {event!r}"]
    return [f"{event}: {p}" for p in _SCHEMAS[event].problems(record)]


def read_run_log(path: str | os.PathLike, strict: bool = True) -> list[dict]:
    """Parse a JSONL run log back into record dicts.

    ``strict=True`` (the default) raises ``ValueError`` on the first
    malformed line or schema violation; ``strict=False`` skips bad lines.
    """
    return read_jsonl(path, validate_record, strict)
