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

One function, :func:`openmetrics_text`, renders every exposition by
walking the metrics catalogue (:data:`edm.catalog.METRICS`), mid-run and at
the end alike: every family, its type and its help text come from there,
and the only other family is the ``edm_run`` info sample the identity rows
label.  :func:`write_openmetrics` writes it to a file.
"""

from __future__ import annotations

import math
import os
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


def openmetrics_text(metrics: dict) -> str:
    """The OpenMetrics exposition of a run's metrics dict, or any part of it.

    Families follow :data:`edm.catalog.METRICS`, in its order: its identity
    rows label the ``edm_run`` info sample, its gauge and counter rows
    become one family each when the dict holds the key (scenario blocks are
    conditional; counter samples carry the ``_total`` suffix), and
    ``per_osd_wear`` becomes the ``edm_osd_wear{osd="i"}`` gauge vector.
    The text ends with ``# EOF``.
    """
    labels = ",".join(
        f'{m.key}="{_escape(str(metrics[m.key]))}"'
        for m in METRICS if m.type == "info" and m.key in metrics
    )
    lines = [
        "# TYPE edm_run info",
        "# HELP edm_run Identity of the run this snapshot describes.",
        f"edm_run_info{{{labels}}} 1" if labels else "edm_run_info 1",
    ]
    for m in METRICS:
        if m.type not in ("gauge", "counter") or m.key not in metrics:
            continue
        name = f"edm_{m.family}"
        lines.append(f"# TYPE {name} {m.type}")
        lines.append(f"# HELP {name} {_escape(m.help)}")
        sample = name + ("_total" if m.type == "counter" else "")
        value = metrics[m.key]
        if isinstance(value, list):
            lines += [f'{sample}{{osd="{i}"}} {format_value(v)}' for i, v in enumerate(value)]
        else:
            lines.append(f"{sample} {format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(metrics: dict, path: str | os.PathLike) -> None:
    """Atomically replace ``path`` with :func:`openmetrics_text` of ``metrics``."""
    text = openmetrics_text(metrics).encode("utf-8")
    atomic_write(path, lambda f: f.write(text))


class MetricsSnapshotRecorder(Recorder):
    """Live OpenMetrics snapshots written during a run.

    Attach to ``simulate(cfg, recorders=...)`` to keep ``path`` updated
    (atomic replace) every ``every`` epochs and at the end of the run with
    :func:`openmetrics_text` of a partial metrics dict: the run's
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
        write_openmetrics(metrics, self.path)

    def _write(self) -> None:
        write_openmetrics(self._live, self.path)
        self.snapshots += 1
