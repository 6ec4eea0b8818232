#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` JSON files of ``benchmarks/run.py`` runs,
made by alternating parent and change runs; files pair up in name order.
For every (end-to-end metric, workload) the tool prints each side's median
and quartiles over its runs and one verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: a side's IQR is wider than the bound and not every
  change run beats every parent run;
* ``unchanged``: none of the above.

``failed_frac`` pools each side's failed and attempted repetitions; any
rise is ``worse``.

It also flags a digest that differs between the sides at the same seed,
and ranks the per-layer ``*.self_s`` deltas of traced runs so that a
regression is blamed on a named layer.  The exit code is 1 when a metric
is worse or a digest differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP_LAYERS = 5


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _rel(spread: float, median: float) -> float:
    if median:
        return spread / abs(median)
    return 0.0 if spread == 0 else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Classify a change's runs against the parent's for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_iqr = quartiles(parent)[1] - quartiles(parent)[0]
    c_iqr = quartiles(change)[1] - quartiles(change)[0]
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p_iqr:
        return "improved"
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(_rel(p_iqr, pm), _rel(c_iqr, cm)) > bound and not beats_all:
        return "unresolved"
    return "unchanged"


def load_runs(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def _values(runs, workload, metric, section="end_to_end") -> list[float]:
    out = []
    for run in runs:
        rec = run["workloads"].get(workload, {}).get(section, {}).get(metric)
        if rec is not None:
            out.append(rec["value"])
    return out


def _failed_frac(runs, workload) -> float | None:
    recs = [run["workloads"][workload] for run in runs if workload in run["workloads"]]
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else None


def _digests(runs, workload) -> dict[int, set[str]]:
    seen: dict[int, set[str]] = {}
    for run in runs:
        rec = run["workloads"].get(workload)
        if rec is not None and rec.get("digest"):
            seen.setdefault(rec["seed"], set()).add(rec["digest"])
    return seen


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any metric is worse or any digest differs."""
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    workloads = sorted({w for run in parent + change for w in run["workloads"]})
    lines, bad = [], False
    for wl in workloads:
        lines.append(f"== {wl} ==")
        for name, unit, better, bound in metrics:
            p, c = _values(parent, wl, name), _values(change, wl, name)
            if not p or not c:
                continue
            v = verdict(p, c, better, bound)
            bad |= v == "worse"
            (pq1, pq3), (cq1, cq3) = quartiles(p), quartiles(c)
            lines.append(
                f"  {name:<16} parent {statistics.median(p):.6g} [{pq1:.6g}, {pq3:.6g}] n={len(p)}"
                f"  change {statistics.median(c):.6g} [{cq1:.6g}, {cq3:.6g}] n={len(c)}"
                f"  {unit}  {v}"
            )
        pf, cf = _failed_frac(parent, wl), _failed_frac(change, wl)
        if pf is not None and cf is not None:
            v = "worse" if cf > pf else "improved" if cf < pf else "unchanged"
            bad |= v == "worse"
            lines.append(f"  {'failed_frac':<16} parent {pf:.6g}  change {cf:.6g}  fraction  {v}")
        pd, cd = _digests(parent, wl), _digests(change, wl)
        for seed in sorted(set(pd) & set(cd)):
            if pd[seed] != cd[seed]:
                bad = True
                lines.append(f"  DIGEST DIFFERS at seed {seed}: parent {sorted(pd[seed])} change {sorted(cd[seed])}")
        layers = sorted({
            k for run in parent + change
            for k in run["workloads"].get(wl, {}).get("per_layer", {}) if k.endswith(".self_s")
        })
        deltas = []
        for layer in layers:
            p, c = _values(parent, wl, layer, "per_layer"), _values(change, wl, layer, "per_layer")
            if p and c:
                pm, cm = statistics.median(p), statistics.median(c)
                deltas.append((cm - pm, layer, pm, cm))
        if deltas:
            lines.append("  per-layer self time, largest increase first:")
            for delta, layer, pm, cm in sorted(deltas, reverse=True)[:TOP_LAYERS]:
                rel = f" ({delta / pm:+.1%})" if pm else ""
                lines.append(f"    {layer:<28} {pm:.6g} s -> {cm:.6g} s  {delta:+.6g} s{rel}")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    if not parent or not change:
        print("error: each directory needs at least one result JSON", file=sys.stderr)
        return 2
    lines, bad = compare(parent, change, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
