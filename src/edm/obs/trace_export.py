"""Span timeline export: raw span-event JSONL -> Chrome/Perfetto trace JSON.

:class:`~edm.obs.trace.Tracer` with ``record_events=True`` keeps every span
occurrence (wall-clock start, duration, recording pid/tid), not just the
per-path aggregate.  :func:`write_span_events` streams those occurrences as
JSONL -- one appendable file that sweep workers and the parent process all
write into (``edm run --trace PATH`` / ``edm sweep --trace PATH``) -- and
:func:`to_chrome_trace` converts the merged timeline into the Chrome
``trace_event`` JSON format (``ph: "X"`` complete events, microsecond
timestamps) that https://ui.perfetto.dev and ``chrome://tracing`` open
directly: one track per process, spans nested by containment, so "where did
the sweep's wall time go" becomes a picture instead of a table.

``edm trace export events.jsonl -o trace.json`` is the CLI wrapper
(:func:`export_chrome_trace`).
"""

from __future__ import annotations

import json
import os

from edm.files import NUMBER, RecordSchema, append_jsonl, atomic_write, read_jsonl

#: Fields every span-event record must carry, with their types.
SPAN_EVENT_FIELDS = {"name": str, "ts": NUMBER, "dur": NUMBER, "pid": int, "tid": int}

_SCHEMA = RecordSchema(SPAN_EVENT_FIELDS)


def validate_span_event(record: dict) -> list[str]:
    """Schema problems with one span-event record (empty list == valid)."""
    return _SCHEMA.problems(record)


def write_span_events(tracer, path: str | os.PathLike, label: str | None = None) -> int:
    """Append a tracer's recorded span events to a JSONL file.

    One JSON object per line, written as a single append so concurrent
    workers' batches interleave without tearing lines (the JSONL format
    shared with the run and decision logs, :mod:`edm.files`).  ``label``
    tags every event (e.g. the config's cache name) so a merged multi-run
    timeline stays attributable.  Returns the number of events written; a
    tracer without ``record_events=True`` writes none.
    """
    events = tracer.events()
    if not events:
        return 0
    if label is not None:
        for event in events:
            event["label"] = label
    append_jsonl(path, events)
    return len(events)


def read_span_events(path: str | os.PathLike, strict: bool = True) -> list[dict]:
    """Parse a span-event JSONL file back into records, sorted by start time.

    ``strict=True`` raises ``ValueError`` on the first malformed line;
    ``strict=False`` skips bad lines.
    """
    records = read_jsonl(path, validate_span_event, strict)
    records.sort(key=lambda e: (e["ts"], -e["dur"]))
    return records


def to_chrome_trace(events: list[dict]) -> dict:
    """Convert span-event records to a Chrome ``trace_event`` JSON object.

    Emits one ``ph: "X"`` (complete) event per span with microsecond
    timestamps rebased to the earliest event, plus ``ph: "M"`` metadata
    naming each process track.  Thread ids are remapped to small ordinals
    per process so the viewer's track labels stay readable.
    """
    trace_events: list[dict] = []
    if events:
        t0 = min(e["ts"] for e in events)
        tid_map: dict[tuple[int, int], int] = {}
        for e in events:
            tid = tid_map.setdefault((e["pid"], e["tid"]), len(
                [k for k in tid_map if k[0] == e["pid"]]
            ))
            entry = {
                "name": e["name"],
                "cat": "edm",
                "ph": "X",
                "ts": (e["ts"] - t0) * 1e6,
                "dur": e["dur"] * 1e6,
                "pid": e["pid"],
                "tid": tid,
            }
            if "label" in e:
                entry["args"] = {"label": e["label"]}
            trace_events.append(entry)
        for pid in sorted({e["pid"] for e in events}):
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"edm pid {pid}"},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def export_chrome_trace(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    strict: bool = True,
) -> int:
    """Read a span-event JSONL file and write the Chrome trace JSON.

    Returns the number of span events exported.
    """
    events = read_span_events(in_path, strict=strict)
    text = json.dumps(to_chrome_trace(events), separators=(",", ":")) + "\n"
    atomic_write(out_path, lambda f: f.write(text.encode("utf-8")))
    return len(events)
