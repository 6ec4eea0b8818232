"""Span timeline export: a run log's ``span`` records -> Chrome/Perfetto JSON.

:class:`~edm.obs.trace.Tracer` with ``record_events=True`` keeps every span
occurrence (wall-clock start, duration, recording pid/tid), not just the
per-path aggregate.  The run log (:mod:`edm.obs.runlog`) holds them as
``span`` records -- one appendable file that sweep workers and the parent
process all write into (``edm run --run-log PATH`` / ``edm sweep --trace
--run-log PATH``) -- and :func:`to_chrome_trace` converts the merged
timeline into the Chrome ``trace_event`` JSON format (``ph: "X"`` complete
events, microsecond timestamps) that https://ui.perfetto.dev and
``chrome://tracing`` open directly: one track per process, spans nested by
containment, so "where did the sweep's wall time go" becomes a picture
instead of a table.

``edm trace export runs.jsonl -o trace.json`` is the CLI wrapper
(:func:`export_chrome_trace`).
"""

from __future__ import annotations

import json
import os

from edm.files import atomic_write
from edm.obs.runlog import read_run_log


def to_chrome_trace(events: list[dict]) -> dict:
    """Convert ``span`` records to a Chrome ``trace_event`` JSON object.

    Emits one ``ph: "X"`` (complete) event per span with microsecond
    timestamps rebased to the earliest event, plus ``ph: "M"`` metadata
    naming each process track.  Thread ids are remapped to small ordinals
    per process so the viewer's track labels stay readable; a run's spans
    carry its ``config`` as an argument.
    """
    out: list[dict] = []
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
            if "config" in e:
                entry["args"] = {"config": e["config"]}
            out.append(entry)
        for pid in sorted({e["pid"] for e in events}):
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"edm pid {pid}"},
                }
            )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def export_chrome_trace(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    strict: bool = True,
) -> int:
    """Read a run log's ``span`` records and write the Chrome trace JSON.

    Returns the number of span events exported.
    """
    events = [r for r in read_run_log(in_path, strict) if r["event"] == "span"]
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    text = json.dumps(to_chrome_trace(events), separators=(",", ":")) + "\n"
    atomic_write(out_path, lambda f: f.write(text.encode("utf-8")))
    return len(events)
