"""Aggregate cached sweep results into the paper's comparison table.

Reads every metrics pickle in a ``.repro-cache``-style directory, skips stale
entries (engine-version or config drift; see :func:`edm.cache.read_entry`)
without deleting them, and aggregates policy x workload cells --
load CoV, wear spread, wear CoV, migration cost -- averaged across cluster
sizes and seeds.  Serviced runs add tail-latency columns (p50/p99/p999 and
the migration-spike ratio), elastic runs add topology columns (cold-drive
load share, drain evacuation moves), and redundant runs add reconstruction
columns (rebuild reads, rebuilt MB, lost chunks), each shown only when such
a scenario is present so plain reports keep their historical shape.  Renders
markdown (for docs/PRs) or JSON (for tooling).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from edm.cache import read_entry

# (metrics key, column header, format spec)
TABLE_COLUMNS = (
    ("load_cov_mean", "load CoV", ".4f"),
    ("load_peak_ratio_mean", "peak ratio", ".3f"),
    ("wear_spread", "wear spread", ".0f"),
    ("wear_cov", "wear CoV", ".4f"),
    ("migration_cost_mb", "migration MB", ".0f"),
)

# Tail-latency columns, present only on serviced runs; unserviced rows in a
# mixed report render them as "-".
SERVICE_COLUMNS = (
    ("service_lat_p50", "lat p50", ".3g"),
    ("service_lat_p99", "lat p99", ".3g"),
    ("service_lat_p999", "lat p999", ".3g"),
    ("migration_spike_ratio", "mig spike", ".3g"),
)

# Elastic-topology columns, present only on runs with a topology plan;
# static rows in a mixed report render them as "-".
TOPOLOGY_COLUMNS = (
    ("cold_load_share_final", "cold share", ".3f"),
    ("drain_moves_total", "drain moves", ".0f"),
)

# Redundancy columns, present only on runs with a redundancy scheme; plain
# rows in a mixed report render them as "-".
REDUNDANCY_COLUMNS = (
    ("reconstruction_reads_total", "recon reads", ".0f"),
    ("reconstruction_write_mb", "recon MB", ".0f"),
    ("data_loss_chunks_total", "lost chunks", ".0f"),
)


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
    """Mean per (workload, policy, faults, endurance, service, topology,
    redundancy) cell, sorted.

    Healthy, unrated, unserviced, static, redundancy-free runs carry none of
    the ``faults`` / ``endurance`` / ``service`` / ``topology`` /
    ``redundancy`` keys and land in the ``("", "", "", "", "")`` scenario, so
    a plain cache aggregates exactly as before; fault scenarios, endurance
    models, service models, topology plans and redundancy schemes become
    separate rows comparable side by side with their baseline.  Service,
    topology and redundancy columns are averaged only where present and
    not NaN: an empty histogram's NaN percentile would otherwise poison the
    cell mean.  A ``+inf`` percentile (past the 1e4-epoch top edge) is a
    real tail and propagates into the mean.
    """
    groups: dict[tuple[str, str, str, str, str, str, str], list[dict]] = {}
    for m in metrics_rows:
        key = (
            m["workload"],
            m["policy"],
            m.get("faults", ""),
            m.get("endurance", ""),
            m.get("service", ""),
            m.get("topology", ""),
            m.get("redundancy", ""),
        )
        groups.setdefault(key, []).append(m)
    out = []
    for key_tuple, rows in sorted(groups.items()):
        workload, policy, faults, endurance, service, topology, redundancy = key_tuple
        cell = {
            "workload": workload,
            "policy": policy,
            "faults": faults,
            "endurance": endurance,
            "service": service,
            "topology": topology,
            "redundancy": redundancy,
            "runs": len(rows),
        }
        for key, _header, _fmt in TABLE_COLUMNS:
            cell[key] = sum(r[key] for r in rows) / len(rows)
        for present, columns in (
            (service, SERVICE_COLUMNS),
            (topology, TOPOLOGY_COLUMNS),
            (redundancy, REDUNDANCY_COLUMNS),
        ):
            for key, _header, _fmt in columns if present else ():
                vals = [r[key] for r in rows if key in r and not math.isnan(r[key])]
                cell[key] = sum(vals) / len(vals) if vals else math.nan
        out.append(cell)
    return out


def render_markdown(cells: list[dict]) -> str:
    # The faults / endurance / service / topology columns only appear once
    # such a scenario is present, so plain healthy-cluster reports keep
    # their historical shape.
    show_faults = any(c.get("faults") for c in cells)
    show_endurance = any(c.get("endurance") for c in cells)
    show_service = any(c.get("service") for c in cells)
    show_topology = any(c.get("topology") for c in cells)
    show_redundancy = any(c.get("redundancy") for c in cells)
    headers = ["workload", "policy"]
    if show_faults:
        headers.append("faults")
    if show_endurance:
        headers.append("endurance")
    if show_service:
        headers.append("service")
    if show_topology:
        headers.append("topology")
    if show_redundancy:
        headers.append("redundancy")
    headers += ["runs"] + [h for _k, h, _f in TABLE_COLUMNS]
    if show_service:
        headers += [h for _k, h, _f in SERVICE_COLUMNS]
    if show_topology:
        headers += [h for _k, h, _f in TOPOLOGY_COLUMNS]
    if show_redundancy:
        headers += [h for _k, h, _f in REDUNDANCY_COLUMNS]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for c in cells:
        values = [c["workload"], c["policy"]]
        if show_faults:
            values.append(c.get("faults") or "healthy")
        if show_endurance:
            values.append(c.get("endurance") or "unrated")
        if show_service:
            values.append(c.get("service") or "untimed")
        if show_topology:
            values.append(c.get("topology") or "static")
        if show_redundancy:
            values.append(c.get("redundancy") or "plain")
        values.append(str(c["runs"]))
        values += [format(c[key], fmt) for key, _h, fmt in TABLE_COLUMNS]
        for shown, columns in (
            (show_service, SERVICE_COLUMNS),
            (show_topology, TOPOLOGY_COLUMNS),
            (show_redundancy, REDUNDANCY_COLUMNS),
        ):
            for key, _h, fmt in columns if shown else ():
                v = c.get(key)
                has = v is not None and not (isinstance(v, float) and math.isnan(v))
                values.append(format(v, fmt) if has else "-")
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
