"""Per-layer costs for the benchmark's traced pass.

The traced pass hands an ``edm.obs.Tracer`` to ``simulate`` / ``sweep``.
Their own ``simulate.*`` and ``sweep.*`` spans cover each engine phase;
:class:`Probe` wraps a few more public entry points with ``Tracer.wrap``
so that their time is split out of the phase that calls them:

* ``edm.engine.core.replace_dead_chunks`` -> span ``replace``
* ``edm.engine.core.apply_migrations`` -> span ``apply``
* ``MetricsAccumulator.on_epoch`` / ``.finalize`` -> span ``metrics``
* the ``TimeSeriesRecorder`` hooks -> span ``telemetry``
* ``ResultCache.load`` / ``.store`` -> spans ``cache_load`` / ``cache_store``

The probe also counts the moves handed to ``apply_migrations``, from which
the moves the policies selected follow.  The chunks re-placement moved and
the moves applied are read off the simulated metrics instead.  A wrapped
name that no longer exists is skipped, so its metrics come out absent
instead of crashing the run.

A layer's self time is the total of its spans minus the spans nested
directly inside them.  Wrapped span names carry no dots, so a span's
parent is the longest dotted prefix of its path that is itself a span.
"""

from __future__ import annotations

import contextlib
import importlib

#: Span name -> layer.  ``<layer>.self_s`` is reported for each one present.
SPAN_LAYERS = {
    "simulate.setup": "setup",
    "simulate.topology": "topology",
    "simulate.faults": "faults",
    "simulate.endurance": "endurance",
    "simulate.workload_gen": "workloads",
    "simulate.kernel": "engine.kernels",
    "simulate.service": "service",
    "simulate.observers": "observers",
    "simulate.migration": "policies",
    "simulate.finalize": "finalize",
    "replace": "engine.replace",
    "apply": "engine.apply",
    "metrics": "engine.metrics",
    "telemetry": "telemetry",
}

#: Layers whose cost scales with cluster size x epochs.
PER_OSD_EPOCH = ("workloads", "engine.kernels", "service")

#: Per-layer counts read off the simulated metrics: metric -> summed keys.
OUTPUT_COUNTS = {
    "service.requests": ("service_requests_total",),
    "faults.events": ("fault_failures", "fault_slow_events", "fault_hiccups"),
    "redundancy.reconstruction_reads": ("reconstruction_reads_total",),
    "redundancy.data_loss_chunks": ("data_loss_chunks_total",),
    "endurance.wearouts": ("wearouts_total",),
    "topology.drain_moves": ("drain_moves_total",),
}

#: Chunks moved by re-placement after a failure, a wear-out or a drain.
REPLACED_KEYS = ("replacement_moves_total", "wearout_replacements_total", "drain_moves_total")

#: Every per-layer metric the traced pass can report, in display order.
LAYER_METRICS = (
    "workloads.self_s", "workloads.us_per_osd_epoch",
    "engine.kernels.self_s", "engine.kernels.us_per_osd_epoch",
    "service.self_s", "service.us_per_osd_epoch", "service.requests",
    "service.dropped_frac",
    "faults.self_s", "faults.events",
    "engine.replace.self_s", "engine.replace.calls", "engine.replace.chunks",
    "engine.replace.us_per_chunk",
    "redundancy.reconstruction_reads", "redundancy.data_loss_chunks",
    "observers.self_s", "telemetry.self_s", "telemetry.samples",
    "engine.metrics.self_s",
    "policies.self_s", "policies.rounds", "policies.moves_selected",
    "engine.apply.self_s", "engine.moves_applied", "policies.apply_ratio",
    "endurance.self_s", "endurance.wearouts",
    "topology.self_s", "topology.drain_moves",
    "setup.self_s", "finalize.self_s",
    "sweep.cache_probe_s", "sweep.pool_startup_s", "sweep.collect_s",
    "sweep.worker_simulate_s", "sweep.pool_busy_frac",
    "cache.store_us_per_config", "cache.load_us_per_config",
    "cache.warm_sweep_s", "cache.warm_hits",
    "trace.overhead_frac", "trace.coverage",
)

#: Prefix of the pseudo-spans that carry a sweep worker's probe counts
#: back to the parent inside its run-log ``timings``.
COUNT_PREFIX = "bench:"


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name.endswith(("_frac", "_ratio", ".coverage")):
        return "fraction"
    return "count"


def resolve(module: str, attr: str | None = None):
    """The module (or a class in it) to patch; None if it no longer exists."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return mod if attr is None else getattr(mod, attr, None)


@contextlib.contextmanager
def patched(patches):
    """Replace ``owner.attr`` by ``make(original)`` for each patch, then restore.

    Only attributes defined on the owner itself are patched; a missing
    owner or attribute is skipped.
    """
    saved = []
    try:
        for owner, attr, make in patches:
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


class Probe:
    """Times layer entry points on one tracer and counts the moves offered."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = {"moves_offered": 0}

    def engine(self):
        """Context manager wrapping the engine's layer entry points."""
        core = resolve("edm.engine.core")
        acc = resolve("edm.engine.metrics", "MetricsAccumulator")
        rec = resolve("edm.telemetry", "TimeSeriesRecorder")
        patches = [
            (core, "replace_dead_chunks", self.tracer.wrap("replace")),
            (core, "apply_migrations", lambda fn: self._apply(self.tracer.wrap("apply")(fn))),
            (acc, "on_epoch", self.tracer.wrap("metrics")),
            (acc, "finalize", self.tracer.wrap("metrics")),
        ]
        for hook in ("on_run_start", "on_topology", "on_fault", "on_epoch", "on_migration", "finalize"):
            patches.append((rec, hook, self.tracer.wrap("telemetry")))
        return patched(patches)

    def cache(self):
        """Context manager wrapping the result cache's load and store."""
        cache = resolve("edm.cache", "ResultCache")
        return patched([
            (cache, "load", self.tracer.wrap("cache_load")),
            (cache, "store", self.tracer.wrap("cache_store")),
        ])

    def _apply(self, timed):
        def apply_migrations(state, moves, cfg, *args, **kwargs):
            self.counts["moves_offered"] += len(moves)
            return timed(state, moves, cfg, *args, **kwargs)

        return apply_migrations


def probed_simulate(real):
    """``simulate`` for sweep workers: probes every traced run.

    The probe's counts ride back to the parent as ``bench:<name>`` entries
    of the run's ``timings``, which the sweep writes to the run log.
    """

    def simulate(cfg, recorders=(), tracer=None):
        if tracer is None or not tracer.enabled:
            return real(cfg, recorders=recorders, tracer=tracer)
        probe = Probe(tracer)
        with probe.engine():
            metrics = real(cfg, recorders=recorders, tracer=tracer)
        for name, n in probe.counts.items():
            metrics["timings"][COUNT_PREFIX + name] = {"count": n, "total_s": 0.0, "mean_s": 0.0}
        return metrics

    return simulate


def merge_summaries(summaries) -> tuple[dict, dict]:
    """Sum span summaries; returns (summary, probe counts from ``bench:`` entries)."""
    merged: dict[str, dict] = {}
    for summary in summaries:
        for path, rec in summary.items():
            m = merged.setdefault(path, {"count": 0, "total_s": 0.0})
            m["count"] += rec["count"]
            m["total_s"] += rec["total_s"]
    counts = {
        path[len(COUNT_PREFIX):]: merged.pop(path)["count"]
        for path in [p for p in merged if p.startswith(COUNT_PREFIX)]
    }
    return merged, counts


def _parent(path: str, paths) -> str | None:
    i = path.rfind(".")
    while i > 0:
        if path[:i] in paths:
            return path[:i]
        i = path.rfind(".", 0, i)
    return None


def self_times(summary: dict) -> tuple[dict, dict, float]:
    """Per span name: (self seconds, calls), plus the top-level spans' total."""
    leaf = {}
    parent = {}
    for path in summary:
        parent[path] = _parent(path, summary)
        leaf[path] = path[len(parent[path]) + 1:] if parent[path] else path
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    top = 0.0
    for path, rec in summary.items():
        name = leaf[path]
        self_s[name] = self_s.get(name, 0.0) + rec["total_s"]
        calls[name] = calls.get(name, 0) + rec["count"]
        if parent[path] is None:
            top += rec["total_s"]
        else:
            up = leaf[parent[path]]
            self_s[up] = self_s.get(up, 0.0) - rec["total_s"]
    return self_s, calls, top


def layer_metrics(summary: dict, counts: dict, metrics: list[dict], osd_epochs: int) -> dict:
    """Per-layer metrics of one traced repetition (``trace.*`` excluded)."""
    self_s, calls, _ = self_times(summary)
    out: dict[str, float] = {}
    for span, layer in SPAN_LAYERS.items():
        if span in self_s:
            out[f"{layer}.self_s"] = self_s[span]
            if layer in PER_OSD_EPOCH:
                out[f"{layer}.us_per_osd_epoch"] = self_s[span] / osd_epochs * 1e6
    if "simulate.migration" in calls:
        out["policies.rounds"] = calls["simulate.migration"]
    replaced = sum(m.get(k, 0) for m in metrics for k in REPLACED_KEYS)
    if "apply" in calls:
        # Re-placement offers apply_migrations distinct chunks, each bound
        # for a live OSD other than its owner, so all of them are applied:
        # the rest of the offered and applied moves are the policies' own.
        selected = counts["moves_offered"] - replaced
        applied = sum(m["migrations_total"] for m in metrics) - replaced
        out["policies.moves_selected"] = selected
        out["engine.moves_applied"] = applied
        if selected:
            out["policies.apply_ratio"] = applied / selected
    if "replace" in calls:
        out["engine.replace.calls"] = calls["replace"]
        out["engine.replace.chunks"] = replaced
        if replaced:
            out["engine.replace.us_per_chunk"] = self_s["replace"] / replaced * 1e6
    for name, keys in OUTPUT_COUNTS.items():
        if any(k in m for m in metrics for k in keys):
            out[name] = sum(m.get(k, 0) for m in metrics for k in keys)
    if out.get("service.requests"):
        dropped = sum(m.get("service_dropped_total", 0) for m in metrics)
        out["service.dropped_frac"] = dropped / out["service.requests"]
    return out
