"""Structured JSONL run logs.

One append-only file records everything a sweep did: a ``sweep_start`` /
``sweep_end`` pair from the parent process and a ``run_start`` / ``run_end``
pair per simulated config, emitted *from inside the worker* that ran it
(mirroring the ``.npz`` streaming path, so the parent never buffers log
payloads).  Records use the JSONL line format shared with the decision and
span logs (:mod:`edm.files`): one JSON object per line, each appended as
one ``write``, which keeps concurrent worker appends intact on POSIX
filesystems.

Record schema (all records)::

    event      "sweep_start" | "sweep_end" | "run_start" | "run_end"
    schema     record schema version (int, :data:`RUNLOG_SCHEMA_VERSION`);
               readers reject records missing it and skip records stamped
               newer than they understand (forward compatibility)
    ts         unix wall-clock seconds (float)
    sweep_id   hex id correlating every record of one sweep() call
    pid        writing process id

``run_*`` records add ``run_id``, ``config`` (cache name), ``config_hash``
and ``engine_version``; ``run_end`` adds ``wall_s``, ``total_requests``,
``requests_per_sec`` and ``timings`` (span summary from the worker-side
tracer).  ``sweep_end`` adds ``wall_s``, the cache counters
(``cache_hits`` / ``cache_misses`` / ``cache_invalidated``), ``simulated``
and the parent-side span summary.  ``fault`` records tag each fired
fault-injection event with ``run_id``, ``config``, ``kind``
(fail/slow/hiccup), ``osd``, ``epoch`` and ``replaced`` (chunks re-placed
off a failed OSD).  ``topology`` records tag each fired topology event with
``run_id``, ``config``, ``kind`` (add/drain), ``epoch``, ``count`` (drives
added; 0 for drains), ``osd`` (drain target; -1 for adds), ``moved``
(chunks evacuated off a drained OSD) and ``osds_total`` (cluster size after
the event).  ``service`` records (one per serviced run, before its
``run_end``) carry the tail-latency numbers -- ``lat_p50`` / ``lat_p99`` /
``lat_p999`` -- plus ``requests`` offered and ``dropped`` by bounded
queues; non-finite percentiles (an empty histogram, an overflowing tail)
serialize as JSON's ``NaN`` / ``Infinity`` literals, which
:func:`read_run_log` parses back.

Use :func:`read_run_log` to parse a file back and :func:`validate_record`
to check any single record against the schema.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path

from edm.files import NUMBER, RecordSchema, append_jsonl, read_jsonl

#: Bump when the record field set changes incompatibly.  Readers skip (or,
#: in strict mode, reject) records stamped with a *newer* schema than they
#: understand, so old tooling degrades by ignoring future records instead of
#: misparsing them.  v2: the ``schema`` field itself became mandatory.
#: v3: added the ``topology`` event type (scale-out / drain records).
RUNLOG_SCHEMA_VERSION = 3

#: Fields every record must carry.
BASE_FIELDS = ("event", "schema", "ts", "sweep_id", "pid")
#: Additional required fields per event type.
EVENT_FIELDS = {
    "sweep_start": ("configs", "pending"),
    "sweep_end": (
        "wall_s",
        "cache_hits",
        "cache_misses",
        "cache_invalidated",
        "simulated",
        "timings",
    ),
    "run_start": ("run_id", "config", "config_hash", "engine_version"),
    "run_end": (
        "run_id",
        "config",
        "config_hash",
        "engine_version",
        "wall_s",
        "total_requests",
        "requests_per_sec",
        "timings",
    ),
    "fault": ("run_id", "config", "kind", "osd", "epoch", "replaced"),
    "topology": (
        "run_id", "config", "kind", "epoch", "count", "osd", "moved",
        "osds_total",
    ),
    "service": ("run_id", "config", "lat_p50", "lat_p99", "lat_p999", "requests", "dropped"),
}
EVENTS = tuple(EVENT_FIELDS)

#: Types checked on top of presence; every other field accepts any value.
_FIELD_TYPES = {"ts": NUMBER, "timings": dict}
_SCHEMAS = {
    event: RecordSchema(
        {f: _FIELD_TYPES.get(f, object) for f in BASE_FIELDS + names},
        version=RUNLOG_SCHEMA_VERSION,
    )
    for event, names in EVENT_FIELDS.items()
}


def new_id() -> str:
    """Random 12-hex id for sweeps and runs."""
    return uuid.uuid4().hex[:12]


class RunLogWriter:
    """Appends JSONL records to one file; safe to use from many processes.

    Each :meth:`emit` opens the file, writes exactly one line, and closes it,
    so a writer object is cheap to construct per worker task and never holds
    a descriptor across fork boundaries.
    """

    def __init__(self, path: str | os.PathLike, sweep_id: str | None = None):
        self.path = Path(path)
        self.sweep_id = sweep_id if sweep_id is not None else new_id()

    def emit(self, event: str, **fields) -> dict:
        """Write one record; returns the record dict that was written."""
        if event not in EVENTS:
            raise ValueError(f"unknown run-log event {event!r}, expected one of {EVENTS}")
        record = {
            "event": event,
            "schema": RUNLOG_SCHEMA_VERSION,
            "ts": time.time(),
            "sweep_id": self.sweep_id,
            "pid": os.getpid(),
            **fields,
        }
        append_jsonl(self.path, (record,))
        return record


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
