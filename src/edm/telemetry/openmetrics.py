"""OpenMetrics text exposition for run metrics.

Renders a run's scalar metrics dict (what :func:`edm.engine.core.simulate`
returns) -- and, via :class:`MetricsSnapshotRecorder`, part of one while a
run is in flight -- in the OpenMetrics text format
(https://prometheus.io/docs/specs/om/open_metrics_spec/): ``# TYPE`` /
``# HELP`` headers per family, counter samples suffixed ``_total``,
``NaN`` / ``+Inf`` literals, escaped label values, ``# EOF`` terminator.
Anything that scrapes Prometheus exposition ingests the output unchanged,
so a simulated cluster's load/wear/endurance numbers drop straight into
existing dashboards: ``edm run --metrics-out metrics.prom``.

This is a snapshot *exporter*, not an HTTP endpoint -- the simulator is a
batch process, so the file (atomically replaced per write) plays the role
of the scrape target, node-exporter-textfile style.

Every family, its type and its help text come from the metrics catalogue
(:data:`edm.catalog.METRICS`), mid-run and at the end alike; the only
other family is the ``edm_run`` info sample the identity rows label.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from edm.catalog import METRICS
from edm.files import atomic_write
from edm.telemetry.recorder import Recorder


def _escape(value: str) -> str:
    """Escape a label value or help string per the exposition format."""
    return value.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n")


def format_value(value) -> str:
    """One sample value as OpenMetrics text (NaN / +Inf / -Inf literals)."""
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


@dataclass
class MetricFamily:
    """One metric family: a name, a type, help text, and its samples."""

    name: str
    type: str
    help: str
    samples: list[tuple[dict, float]] = field(default_factory=list)


class MetricsRegistry:
    """An ordered set of metric families rendered as OpenMetrics text.

    :meth:`declare` adds a family by its full name; :meth:`sample` appends
    one labeled value; :meth:`render` emits the whole exposition.  Families
    render in declaration order, samples in insertion order --
    deterministic output for golden-style tests.
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    def declare(self, name: str, type_: str, help_: str) -> None:
        """Add a family (a no-op if it exists with the same type)."""
        fam = self._families.setdefault(name, MetricFamily(name, type_, help_))
        if fam.type != type_:
            raise ValueError(f"metric family {name!r} already declared as {fam.type}, not {type_}")

    def sample(self, name: str, value, labels: dict | None = None) -> None:
        """Append one sample to an already-declared family."""
        fam = self._families.get(name)
        if fam is None:
            raise KeyError(f"metric family {name!r} not declared")
        fam.samples.append((dict(labels or {}), float(value)))

    def render(self) -> str:
        """The full OpenMetrics exposition, ``# EOF``-terminated."""
        lines: list[str] = []
        for fam in self._families.values():
            lines.append(f"# TYPE {fam.name} {fam.type}")
            if fam.help:
                lines.append(f"# HELP {fam.name} {_escape(fam.help)}")
            suffix = {"counter": "_total", "info": "_info"}.get(fam.type, "")
            for labels, value in fam.samples:
                label_str = ""
                if labels:
                    inner = ",".join(
                        f'{k}="{_escape(str(v))}"' for k, v in labels.items()
                    )
                    label_str = "{" + inner + "}"
                lines.append(f"{fam.name}{suffix}{label_str} {format_value(value)}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write(self, path: str | os.PathLike) -> None:
        """Atomically replace ``path`` with the rendered exposition."""
        text = self.render().encode("utf-8")
        atomic_write(path, lambda f: f.write(text))


def registry_from_metrics(metrics: dict) -> MetricsRegistry:
    """Build a registry exposing a run's metrics dict, or any part of it.

    Families follow :data:`edm.catalog.METRICS`: its identity rows label the
    ``edm_run`` info metric, its gauge and counter rows become one family
    each when the dict holds the key (scenario blocks are conditional),
    and ``per_osd_wear`` becomes the ``edm_osd_wear{osd="i"}`` gauge vector.
    """
    reg = MetricsRegistry()
    reg.declare("edm_run", "info", "Identity of the run this snapshot describes.")
    reg.sample(
        "edm_run", 1,
        {m.key: metrics[m.key] for m in METRICS if m.type == "info" and m.key in metrics},
    )
    for m in METRICS:
        if m.type not in ("gauge", "counter") or m.key not in metrics:
            continue
        name = f"edm_{m.family}"
        reg.declare(name, m.type, m.help)
        value = metrics[m.key]
        if isinstance(value, list):
            for i, v in enumerate(value):
                reg.sample(name, v, {"osd": i})
        else:
            reg.sample(name, value)
    return reg


class MetricsSnapshotRecorder(Recorder):
    """Live OpenMetrics snapshots written during a run.

    Attach to ``simulate(cfg, recorders=...)`` to keep ``path`` updated
    (atomic replace) every ``every`` epochs and at the end of the run with
    :func:`registry_from_metrics` of a partial metrics dict: the run's
    identity, and ``epochs``, ``total_requests``, ``load_cov_final``,
    ``wear_mean``, ``wear_max``, ``migrations_total`` and
    ``osds_alive_final`` as of the latest epoch.  So a live snapshot has
    the catalogue's families, types and help text, like the end-of-run
    exposition :meth:`write_final` puts in its place (what ``edm run
    --metrics-out`` leaves behind).  Purely observational: reads the
    engine's live buffers, copies scalars, never mutates.
    """

    def __init__(self, path: str | os.PathLike, every: int = 16):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self.snapshots = 0

    def on_run_start(self, cfg, state) -> None:
        self._requests = 0
        self._live = {m.key: getattr(cfg, m.key) for m in METRICS if m.type == "info"}

    def on_block(self, state, block) -> None:
        """Update the live metrics at each of the block's epochs a snapshot
        is due at, writing it, and at the block's last epoch."""
        requests = self._requests + np.cumsum(block.requests)
        self._requests = int(requests[-1])
        last = len(block) - 1
        for j, epoch in enumerate(block.epochs):
            due = (epoch + 1) % self.every == 0
            if not (due or j == last):
                continue
            wear = block.wear[j]
            self._live.update(
                epochs=epoch + 1,
                total_requests=int(requests[j]),
                load_cov_final=float(block.cov[j]),
                wear_mean=float(wear.mean()),
                wear_max=float(wear.max()),
                migrations_total=int(state.migrations_total),
                osds_alive_final=int(block.alive_ids.size),
            )
            if due:
                self._write()

    def finalize(self, state, final_load) -> None:
        self._write()

    def write_final(self, metrics: dict) -> None:
        """Replace the snapshot with the end-of-run exposition for ``metrics``."""
        registry_from_metrics(metrics).write(self.path)

    def _write(self) -> None:
        registry_from_metrics(self._live).write(self.path)
        self.snapshots += 1
