"""Aggregate cached sweep results into the paper's comparison table.

Reads every metrics pickle in a ``.repro-cache``-style directory, skips stale
entries (engine-version or config drift; see :func:`edm.cache.read_entry`)
without deleting them, and aggregates policy x workload cells --
load CoV, wear spread, wear CoV, migration cost -- averaged across cluster
sizes and seeds.  The columns are the catalogue's (:data:`edm.catalog.COLUMNS`):
serviced, elastic and redundant runs add the columns of their scenario, each
shown only when such a scenario is present so plain reports keep their
historical shape.  Renders markdown (for docs/PRs) or JSON (for tooling).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from edm.cache import read_entry
from edm.catalog import COLUMNS
from edm.config import SCENARIOS


@dataclass(frozen=True)
class LoadedResults:
    """Cached metrics surviving validation, plus how many entries were stale."""

    metrics: list[dict]
    stale: int


def load_cached_metrics(cache_dir: str | Path) -> LoadedResults:
    """Load every fresh metrics payload under ``cache_dir`` (sorted by name).

    Freshness is :func:`~edm.cache.read_entry`'s; stale entries are counted
    and left on disk.
    """
    rows: list[dict] = []
    stale = 0
    for path in sorted(Path(cache_dir).glob("*.pkl")):
        try:
            payload = read_entry(path)
        except FileNotFoundError:  # invalidated by a concurrent sweep
            payload = None
        if payload is None:
            stale += 1
        else:
            rows.append(payload["metrics"])
    return LoadedResults(metrics=rows, stale=stale)


def aggregate(metrics_rows: list[dict]) -> list[dict]:
    """Mean per (workload, policy, scenario specs...) cell, sorted.

    Runs with no scenario carry none of the scenario spec keys and land
    in the all-empty scenario, so a plain cache aggregates exactly as
    before; each fault scenario, endurance model, service model, topology
    plan and redundancy scheme becomes a separate row comparable side by
    side with its baseline.  A column is averaged over the runs that have
    it and are not NaN: an empty histogram's NaN percentile would otherwise
    poison the cell mean.  A ``+inf`` percentile (past the 1e4-epoch top
    edge) is a real tail and propagates into the mean.
    """
    groups: dict[tuple, list[dict]] = {}
    for m in metrics_rows:
        key = (m["workload"], m["policy"], *(m.get(name, "") for name in SCENARIOS))
        groups.setdefault(key, []).append(m)
    out = []
    for (workload, policy, *specs), rows in sorted(groups.items()):
        cell = {"workload": workload, "policy": policy, **dict(zip(SCENARIOS, specs))}
        cell["runs"] = len(rows)
        for col in COLUMNS:
            if col.scenario is None or cell[col.scenario]:
                vals = [r[col.key] for r in rows if col.key in r and not math.isnan(r[col.key])]
                cell[col.key] = sum(vals) / len(vals) if vals else math.nan
        out.append(cell)
    return out


def render_markdown(cells: list[dict]) -> str:
    # A scenario's spec column, and its metric columns, only appear once
    # such a scenario is present, so plain healthy-cluster reports keep
    # their historical shape.
    shown = {name: s.none for name, s in SCENARIOS.items() if any(c.get(name) for c in cells)}
    columns = [col for col in COLUMNS if col.scenario is None or col.scenario in shown]
    headers = ["workload", "policy", *shown, "runs", *(col.column for col in columns)]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for c in cells:
        values = [c["workload"], c["policy"]]
        values += [c.get(name) or label for name, label in shown.items()]
        values.append(str(c["runs"]))
        for col in columns:
            v = c.get(col.key)
            has = v is not None and not (isinstance(v, float) and math.isnan(v))
            values.append(format(v, col.fmt) if has else "-")
        lines.append("| " + " | ".join(values) + " |")
    return "\n".join(lines)


def render_json(cells: list[dict]) -> str:
    return json.dumps(cells, indent=2)


def render(cells: list[dict], fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return render_markdown(cells)
    if fmt == "json":
        return render_json(cells)
    raise ValueError(f"unknown report format {fmt!r}, expected 'markdown' or 'json'")
