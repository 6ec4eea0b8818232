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

from edm.files import atomic_write
from edm.telemetry.recorder import Recorder, mean_std

#: Metric family types this exporter emits.
TYPES = ("gauge", "counter", "info")


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


#: metrics-dict key -> (family name, type, help).  Keys absent from a run's
#: metrics (fault/endurance/service blocks are conditional) are skipped.
_SCALAR_FAMILIES = {
    "epochs": ("epochs", "counter", "Epochs simulated."),
    "total_requests": ("requests", "counter", "Requests routed over the run."),
    "total_writes": ("writes", "counter", "Write requests among them."),
    "load_cov_mean": (
        "load_cov_mean", "gauge",
        "Per-epoch load coefficient of variation, averaged over epochs.",
    ),
    "load_peak_ratio_mean": (
        "load_peak_ratio_mean", "gauge", "Mean per-epoch max/mean load ratio.",
    ),
    "load_cov_final": ("load_cov_final", "gauge", "Load CoV of the final epoch."),
    "wear_mean": ("wear_mean", "gauge", "Mean erase count across SSDs."),
    "wear_max": ("wear_max", "gauge", "Max erase count across SSDs."),
    "wear_min": ("wear_min", "gauge", "Min erase count across SSDs."),
    "wear_spread": ("wear_spread", "gauge", "Max - min erase count across SSDs."),
    "wear_cov": ("wear_cov", "gauge", "Erase-count CoV across SSDs."),
    "migrations_total": ("migrations", "counter", "Chunks migrated over the run."),
    "migration_cost_mb": (
        "migration_cost_megabytes", "gauge", "Data moved by migration, MB.",
    ),
    # Degraded-mode block (faulted configs only).
    "fault_failures": ("fault_failures", "counter", "OSD failure events fired."),
    "fault_slow_events": ("fault_slow_events", "counter", "Slow-disk events fired."),
    "fault_hiccups": ("fault_hiccups", "counter", "Hiccup events fired."),
    "replacement_moves_total": (
        "replacement_moves", "counter", "Chunks re-placed off failed OSDs.",
    ),
    "fault_recovery_epochs": (
        "fault_recovery_epochs", "gauge",
        "Epochs until survivor load CoV recovered (-1: never).",
    ),
    "load_cov_alive_mean": (
        "load_cov_alive_mean", "gauge", "Load CoV over surviving OSDs, mean.",
    ),
    "osds_alive_final": ("osds_alive", "gauge", "OSDs alive at end of run."),
    # Endurance block (rated configs only).
    "remaining_life_min": (
        "remaining_life_min", "gauge", "Min remaining rated P/E cycles, alive OSDs.",
    ),
    "remaining_life_mean": (
        "remaining_life_mean", "gauge", "Mean remaining rated P/E cycles, alive OSDs.",
    ),
    "remaining_life_cov": (
        "remaining_life_cov", "gauge", "Remaining-life CoV across alive OSDs.",
    ),
    "predicted_first_wearout_epoch": (
        "predicted_first_wearout_epoch", "gauge",
        "Predicted epoch of the next wear-out (-1: none in sight).",
    ),
    "wearouts_total": ("wearouts", "counter", "OSDs worn out during the run."),
    "wearout_replacements_total": (
        "wearout_replacements", "counter", "Chunks re-placed off worn-out OSDs.",
    ),
    "first_wearout_epoch": (
        "first_wearout_epoch", "gauge", "Epoch of the first wear-out (-1: none).",
    ),
    # Service block (serviced configs only).
    "service_lat_p50": (
        "service_lat_p50_epochs", "gauge", "Request latency p50, in epochs of service time.",
    ),
    "service_lat_p99": (
        "service_lat_p99_epochs", "gauge", "Request latency p99, in epochs of service time.",
    ),
    "service_lat_p999": (
        "service_lat_p999_epochs", "gauge", "Request latency p99.9, in epochs of service time.",
    ),
    "service_requests_total": (
        "service_requests", "counter", "Requests offered to the service model.",
    ),
    "service_dropped_total": (
        "service_dropped", "counter", "Requests dropped by bounded queues.",
    ),
    # Redundancy block (redundant configs only).
    "reconstruction_chunks_total": (
        "reconstruction_chunks", "counter", "Chunks rebuilt from group survivors.",
    ),
    "reconstruction_reads_total": (
        "reconstruction_reads", "counter", "Surviving-chunk reads for rebuilds.",
    ),
    "reconstruction_read_mb": (
        "reconstruction_read_megabytes", "gauge", "Data read for rebuilds, MB.",
    ),
    "reconstruction_write_mb": (
        "reconstruction_write_megabytes", "gauge", "Data rewritten by rebuilds, MB.",
    ),
    "data_loss_chunks_total": (
        "data_loss_chunks", "counter",
        "Chunks whose group lacked enough survivors to rebuild.",
    ),
}

_INFO_LABELS = ("workload", "policy", "num_osds", "seed", "skew")


def registry_from_metrics(metrics: dict, prefix: str = "edm") -> MetricsRegistry:
    """Build a registry exposing one run's metrics dict.

    Run identity (workload, policy, size, seed) becomes the ``edm_run`` info
    metric's labels; scalars map through a curated family table (conditional
    fault/endurance/service blocks appear only when the run produced them);
    ``per_osd_wear`` becomes the ``edm_osd_wear{osd="i"}`` gauge vector.
    """
    reg = MetricsRegistry(prefix=prefix)
    reg.info("run", "Identity of the run this snapshot describes.")
    reg.sample(
        "run", 1,
        {k: metrics[k] for k in _INFO_LABELS if k in metrics},
    )
    for key, (name, type_, help_) in _SCALAR_FAMILIES.items():
        if key not in metrics:
            continue
        reg._declare(name, type_, help_)
        reg.sample(name, metrics[key])
    if "per_osd_wear" in metrics:
        reg.gauge("osd_wear", "Erase count per OSD at end of run.")
        for i, wear in enumerate(metrics["per_osd_wear"]):
            reg.sample("osd_wear", wear, {"osd": i})
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

    def on_epoch(self, state, load, stats) -> None:
        self._requests += stats.requests
        reg = self.registry
        mean, std = mean_std(load)
        reg.set("epoch", int(state.epoch))
        reg.set("load_cov", float(std / mean) if mean > 0 else 0.0)
        reg.set("requests", self._requests)
        reg.set("migrations", int(state.migrations_total))
        reg.set("osds_alive", int(state.osd_alive.sum()))
        reg.set("wear_max", float(state.osd_wear.max()))
        reg.set("wear_mean", float(state.osd_wear.mean()))
        if (state.epoch + 1) % self.every == 0:
            self.registry.write(self.path)
            self.snapshots += 1

    def finalize(self, state, final_load) -> None:
        self.registry.write(self.path)
        self.snapshots += 1
        return None

    def write_final(self, metrics: dict) -> None:
        """Replace the snapshot with the end-of-run exposition for ``metrics``."""
        registry_from_metrics(metrics, prefix=self.prefix).write(self.path)
