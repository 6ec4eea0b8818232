"""OpenMetrics text exposition for run metrics.

Renders a run's scalar metrics dict (what :func:`edm.engine.core.simulate`
returns) -- and, via :class:`MetricsSnapshotRecorder`, live per-epoch
gauges while a run is in flight -- in the OpenMetrics text format
(https://prometheus.io/docs/specs/om/open_metrics_spec/): ``# TYPE`` /
``# HELP`` headers per family, counter samples suffixed ``_total``,
``NaN`` / ``+Inf`` literals, escaped label values, ``# EOF`` terminator.
Anything that scrapes Prometheus exposition ingests the output unchanged,
so a simulated cluster's load/wear/endurance numbers drop straight into
existing dashboards: ``edm run --metrics-out metrics.prom``.

This is a snapshot *exporter*, not an HTTP endpoint -- the simulator is a
batch process, so the file (atomically replaced per write) plays the role
of the scrape target, node-exporter-textfile style.
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

    ``gauge`` / ``counter`` / ``info`` declare (or fetch) a family;
    :meth:`sample` appends one labeled value; :meth:`render` emits the whole
    exposition.  Families render in declaration order, samples in insertion
    order -- deterministic output for golden-style tests.
    """

    def __init__(self, prefix: str = "edm"):
        self.prefix = prefix
        self._families: dict[str, MetricFamily] = {}

    def _declare(self, name: str, type_: str, help_: str) -> MetricFamily:
        full = f"{self.prefix}_{name}" if self.prefix else name
        fam = self._families.get(full)
        if fam is None:
            fam = MetricFamily(full, type_, help_)
            self._families[full] = fam
        elif fam.type != type_:
            raise ValueError(
                f"metric family {full!r} already declared as {fam.type}, not {type_}"
            )
        return fam

    def gauge(self, name: str, help_: str) -> str:
        self._declare(name, "gauge", help_)
        return name

    def counter(self, name: str, help_: str) -> str:
        self._declare(name, "counter", help_)
        return name

    def info(self, name: str, help_: str) -> str:
        self._declare(name, "info", help_)
        return name

    def sample(self, name: str, value, labels: dict | None = None) -> None:
        """Append one sample to an already-declared family."""
        full = f"{self.prefix}_{name}" if self.prefix else name
        fam = self._families.get(full)
        if fam is None:
            raise KeyError(f"metric family {full!r} not declared")
        fam.samples.append((dict(labels or {}), float(value)))

    def set(self, name: str, value, labels: dict | None = None) -> None:
        """Replace the sample with the same labels (live-gauge update)."""
        full = f"{self.prefix}_{name}" if self.prefix else name
        fam = self._families.get(full)
        if fam is None:
            raise KeyError(f"metric family {full!r} not declared")
        key = dict(labels or {})
        for i, (lbl, _) in enumerate(fam.samples):
            if lbl == key:
                fam.samples[i] = (key, float(value))
                return
        fam.samples.append((key, float(value)))

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


def registry_from_metrics(metrics: dict, prefix: str = "edm") -> MetricsRegistry:
    """Build a registry exposing one run's metrics dict.

    Families follow :data:`edm.catalog.METRICS`: its identity rows label the
    ``edm_run`` info metric, its gauge and counter rows become one family
    each when the run produced the key (scenario blocks are conditional),
    and ``per_osd_wear`` becomes the ``edm_osd_wear{osd="i"}`` gauge vector.
    """
    reg = MetricsRegistry(prefix=prefix)
    reg.info("run", "Identity of the run this snapshot describes.")
    reg.sample(
        "run", 1,
        {m.key: metrics[m.key] for m in METRICS if m.type == "info" and m.key in metrics},
    )
    for m in METRICS:
        if m.type not in ("gauge", "counter") or m.key not in metrics:
            continue
        reg._declare(m.family, m.type, m.help)
        value = metrics[m.key]
        if isinstance(value, list):
            for i, v in enumerate(value):
                reg.sample(m.family, v, {"osd": i})
        else:
            reg.sample(m.family, value)
    return reg


class MetricsSnapshotRecorder(Recorder):
    """Live per-epoch gauges, written as OpenMetrics snapshots during a run.

    Attach to ``simulate(cfg, recorders=...)`` to keep ``path`` updated
    (atomic replace) every ``every`` epochs with in-flight gauges -- current
    epoch, this epoch's load CoV, cumulative requests and migrations, alive
    OSDs, wear max/mean.  After the run, :meth:`write_final` replaces the
    live snapshot with the full end-of-run exposition
    (:func:`registry_from_metrics`) -- what ``edm run --metrics-out`` leaves
    behind.  Purely observational: reads the engine's live buffers, copies
    scalars, never mutates.
    """

    def __init__(self, path: str | os.PathLike, every: int = 16, prefix: str = "edm"):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self.prefix = prefix
        self.registry = MetricsRegistry(prefix=prefix)
        self.snapshots = 0
        reg = self.registry
        reg.gauge("epoch", "Epoch most recently completed.")
        reg.gauge("load_cov", "Load CoV of the most recent epoch.")
        reg.counter("requests", "Requests routed so far.")
        reg.counter("migrations", "Chunks migrated so far.")
        reg.gauge("osds_alive", "OSDs currently alive.")
        reg.gauge("wear_max", "Max erase count so far.")
        reg.gauge("wear_mean", "Mean erase count so far.")

    def on_run_start(self, cfg, state) -> None:
        self._requests = 0

    def on_block(self, state, block) -> None:
        """Set the gauges from each of the block's epochs a snapshot is due
        at, writing it, and from the block's last epoch."""
        reg = self.registry
        requests = self._requests + np.cumsum(block.requests)
        self._requests = int(requests[-1])
        last = len(block) - 1
        for j, epoch in enumerate(block.epochs):
            due = (epoch + 1) % self.every == 0
            if not (due or j == last):
                continue
            wear = block.wear[j]
            reg.set("epoch", epoch)
            reg.set("load_cov", float(block.cov[j]))
            reg.set("requests", int(requests[j]))
            reg.set("migrations", int(state.migrations_total))
            reg.set("osds_alive", int(block.alive_ids.size))
            reg.set("wear_max", float(wear.max()))
            reg.set("wear_mean", float(wear.mean()))
            if due:
                reg.write(self.path)
                self.snapshots += 1

    def finalize(self, state, final_load) -> None:
        self.registry.write(self.path)
        self.snapshots += 1
        return None

    def write_final(self, metrics: dict) -> None:
        """Replace the snapshot with the end-of-run exposition for ``metrics``."""
        registry_from_metrics(metrics, prefix=self.prefix).write(self.path)
