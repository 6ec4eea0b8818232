"""Render the paper's evaluation figures from saved time series as SVG.

Three figure families, drawn apart per scenario: runs whose series meta
holds different :data:`edm.config.SCENARIOS` specs never share a figure,
and stems end in the scenario's :func:`~edm.config.scenario_suffix`:

  * load-balance degree (load CoV) over time, one line per run
  * final per-OSD cumulative wear, grouped bars per policy
  * migration cost per policy (MB moved), bars across workloads

The SVG is written with the standard library: one line chart and one
grouped-bar chart serve all three families.

Color is assigned by entity, never by position: each policy owns a fixed
categorical slot (CVD-validated palette, adjacent-pair safe), so filtering
policies out of a sweep never repaints the survivors.
"""

from __future__ import annotations

from collections.abc import Callable
from html import escape
from pathlib import Path

import numpy as np

from edm.config import SCENARIOS, scenario_suffix
from edm.telemetry.timeseries import TimeSeries

# Fixed categorical slots (validated palette, light mode), one per policy in
# ``edm.config.POLICIES`` order; a policy keeps its color in any subset.
POLICY_COLORS = {
    "baseline": "#2a78d6",     # blue
    "cdf": "#eb6834",          # orange
    "hdf": "#1baf7a",          # aqua
    "cmt": "#eda100",          # yellow
    "pswl": "#e87ba4",         # magenta
    "consolidate": "#008300",  # green
}

_GRID_COLOR = "#e3e2de"
_TEXT_SECONDARY = "#52514e"
_FONT = 'font-family="sans-serif" font-size="11"'

# Canvas and plot-area margins in px; the right margin holds the legend.
_W, _H = 640, 360
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 112, 36, 48
_PLOT_W = _W - _LEFT - _RIGHT
_PLOT_H = _H - _TOP - _BOTTOM


def _ticks(vmax: float) -> np.ndarray:
    """About five round ticks from 0 covering ``vmax``."""
    if not np.isfinite(vmax) or vmax <= 0:
        return np.arange(2.0)
    base = 10.0 ** np.floor(np.log10(vmax / 5))
    step = next(m * base for m in (1, 2, 2.5, 5, 10) if m * base * 5 >= vmax)
    return step * np.arange(int(np.ceil(vmax / step - 1e-9)) + 1)


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _chart(
    title: str, xlabel: str, ylabel: str, ymax: float, policies
) -> tuple[list[str], Callable]:
    """SVG head, title, y grid with tick labels, axis labels and legend.

    Returns the element list and the map from a data value to a pixel row.
    """
    ticks = _ticks(ymax)

    def y(v):
        return _TOP + _PLOT_H * (1.0 - np.asarray(v, dtype=np.float64) / ticks[-1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" {_FONT}>',
        f'<text x="{_LEFT}" y="20" font-size="13">{escape(title)}</text>',
    ]
    for t in ticks:
        row = y(t)
        parts.append(
            f'<line x1="{_LEFT}" x2="{_LEFT + _PLOT_W}" y1="{row:.1f}" y2="{row:.1f}" '
            f'stroke="{_GRID_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 6}" y="{row + 4:.1f}" text-anchor="end" '
            f'fill="{_TEXT_SECONDARY}">{_fmt(t)}</text>'
        )
    mid = _TOP + _PLOT_H / 2
    parts.append(
        f'<text x="{_LEFT + _PLOT_W / 2}" y="{_H - 8}" text-anchor="middle" '
        f'fill="{_TEXT_SECONDARY}">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="14" y="{mid}" text-anchor="middle" fill="{_TEXT_SECONDARY}" '
        f'transform="rotate(-90 14 {mid})">{escape(ylabel)}</text>'
    )
    for i, policy in enumerate(policies):
        row = _TOP + 8 + 18 * i
        x0 = _LEFT + _PLOT_W + 16
        parts.append(
            f'<line x1="{x0}" x2="{x0 + 16}" y1="{row}" y2="{row}" '
            f'stroke="{POLICY_COLORS[policy]}" stroke-width="3"/>'
        )
        parts.append(f'<text x="{x0 + 22}" y="{row + 4}">{escape(policy)}</text>')
    return parts, y


def _x_label(x: float, text) -> str:
    return (
        f'<text x="{x:.1f}" y="{_TOP + _PLOT_H + 16}" text-anchor="middle" '
        f'fill="{_TEXT_SECONDARY}">{escape(str(text))}</text>'
    )


def _write(path: Path, parts: list[str]) -> Path:
    path.write_text("\n".join([*parts, "</svg>"]) + "\n", encoding="utf-8")
    return path


def _line_chart(path: Path, title: str, xlabel: str, ylabel: str, lines) -> Path:
    """One ``<polyline>`` per ``(policy, label, x, y)``; a policy's later
    lines are drawn lighter so overlaid seeds stay distinguishable."""
    policies = list(dict.fromkeys(policy for policy, *_ in lines))
    ymax = max(float(np.max(ys)) for *_, ys in lines)
    xmax = max(float(np.max(xs)) for *_, xs, _ys in lines)
    parts, y = _chart(title, xlabel, ylabel, ymax, policies)
    xticks = _ticks(xmax)

    def x(v):
        return _LEFT + _PLOT_W * np.asarray(v, dtype=np.float64) / xticks[-1]

    parts.extend(_x_label(x(t), _fmt(t)) for t in xticks)
    seen: set[str] = set()
    for policy, label, xs, ys in lines:
        points = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(x(xs), y(ys)))
        opacity = 0.45 if policy in seen else 1.0
        seen.add(policy)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{POLICY_COLORS[policy]}" '
            f'stroke-width="2" stroke-opacity="{opacity}"><title>{escape(label)}</title>'
            f"</polyline>"
        )
    return _write(path, parts)


def _bar_chart(path: Path, title: str, xlabel: str, ylabel: str, categories, groups) -> Path:
    """Grouped bars: one ``<rect>`` per (policy, category), ``groups`` mapping
    each policy to heights aligned with ``categories``."""
    ymax = max(float(np.max(h)) for h in groups.values())
    parts, y = _chart(title, xlabel, ylabel, ymax, groups)
    band = _PLOT_W / len(categories)
    width = 0.8 * band / len(groups)
    label_every = -(-len(categories) // 20)  # at most ~20 category labels
    for c, name in enumerate(categories):
        if c % label_every == 0:
            parts.append(_x_label(_LEFT + band * (c + 0.5), name))
    for j, (policy, heights) in enumerate(groups.items()):
        tops = y(heights)
        for c, (h, top) in enumerate(zip(heights, tops)):
            left = _LEFT + band * (c + 0.1) + width * (j + 0.05)
            parts.append(
                f'<rect x="{left:.1f}" y="{top:.1f}" width="{0.9 * width:.1f}" '
                f'height="{_TOP + _PLOT_H - top:.1f}" fill="{POLICY_COLORS[policy]}">'
                f"<title>{escape(policy)} {escape(str(categories[c]))}: {_fmt(h)}</title>"
                f"</rect>"
            )
    return _write(path, parts)


def group_series(series_list: list[TimeSeries]) -> dict[tuple[str, int, str], list[TimeSeries]]:
    """Group by (workload, num_osds, scenario suffix) -- the axes of one
    paper figure, under one scenario: runs under different scenarios
    never share a figure."""
    groups: dict[tuple[str, int, str], list[TimeSeries]] = {}
    for s in series_list:
        key = (str(s.meta["workload"]), int(s.meta["num_osds"]), scenario_suffix(s.meta))
        groups.setdefault(key, []).append(s)
    return groups


def _by_policy(series_list: list[TimeSeries]) -> dict[str, list[TimeSeries]]:
    out: dict[str, list[TimeSeries]] = {}
    for s in series_list:
        out.setdefault(str(s.meta["policy"]), []).append(s)
    order = list(POLICY_COLORS)
    return dict(sorted(out.items(), key=lambda kv: order.index(kv[0])))


def migration_cost_mb(series: TimeSeries) -> float:
    """Total data moved, re-placement bursts included: the metrics dict's
    ``migration_cost_mb``, from the series' own meta."""
    return float(series.meta["migrations_total"] * series.meta["chunk_size_mb"])


def scenario_title(meta) -> str:
    """The non-empty scenario specs of a series meta, for a figure title:
    ``" (topology add:2@8)"``, or ``""`` with no scenario."""
    specs = [f"{name} {meta[name]}" for name in SCENARIOS if meta.get(name)]
    return f" ({', '.join(specs)})" if specs else ""


def render_figures(series_list: list[TimeSeries], out_dir: str | Path) -> list[Path]:
    """Render every figure the loaded series support; returns written paths.

    Stems end in the scenario's digest suffix, and titles name its specs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    groups = sorted(group_series(series_list).items())
    for (workload, num_osds, suffix), runs in groups:
        stem = f"{workload}-{num_osds}osd{suffix}"
        specs = scenario_title(runs[0].meta)
        by_policy = _by_policy(runs)
        written.append(_line_chart(
            out_dir / f"load_cov_{stem}.svg",
            f"Load-balance degree over time — {stem}{specs}",
            "epoch",
            "load CoV (std/mean)",
            [(policy, f"{policy} seed {s.meta['seed']}", s.epoch, s.load_cov)
             for policy, ps in by_policy.items() for s in ps],
        ))
        written.append(_bar_chart(
            out_dir / f"wear_final_{stem}.svg",
            f"Final per-OSD wear — {stem}{specs}",
            "OSD",
            "cumulative wear (erase units)",
            list(range(runs[0].num_osds)),
            {policy: np.mean([s.wear[-1] for s in ps], axis=0)
             for policy, ps in by_policy.items()},
        ))
    by_size: dict[tuple[int, str], list[TimeSeries]] = {}
    for (_, num_osds, suffix), runs in groups:
        by_size.setdefault((num_osds, suffix), []).extend(runs)
    for (num_osds, suffix), subset in sorted(by_size.items()):
        workloads = sorted({str(s.meta["workload"]) for s in subset})
        specs = scenario_title(subset[0].meta)
        written.append(_bar_chart(
            out_dir / f"migration_cost_{num_osds}osd{suffix}.svg",
            f"Migration cost per policy — {num_osds} OSDs{suffix}{specs}",
            "workload",
            "migration cost (MB)",
            workloads,
            {policy: [float(np.mean([migration_cost_mb(s) for s in ps
                                     if s.meta["workload"] == w] or [0.0]))
                      for w in workloads]
             for policy, ps in _by_policy(subset).items()},
        ))
    return written


def load_series_dir(ts_dir: str | Path) -> list[TimeSeries]:
    """Load every ``.npz`` series in a directory (sorted for determinism)."""
    return [TimeSeries.load_npz(p) for p in sorted(Path(ts_dir).glob("*.npz"))]
