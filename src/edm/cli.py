"""Command-line interface: ``python -m edm {run,sweep,explain,trace,report,plot}``.

Primary results (metrics JSON, sweep tables, report output) go to stdout;
everything diagnostic goes through the ``edm.*`` package logger on stderr,
controlled by the global ``-v``/``-vv`` and ``--log-level`` flags (accepted
both before and after the subcommand).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from edm import report as report_mod
from edm.cache import DEFAULT_CACHE_DIR
from edm.config import POLICY_ALIASES, POLICIES, WORKLOADS, SimConfig
from edm.engine.core import simulate
from edm.obs import NULL_TRACER, Tracer, configure_logging, get_logger
from edm.obs.decisions import (
    TRIGGERS,
    DecisionRecorder,
    attribution_summary,
    format_attribution,
    format_decision,
    query_decisions,
    read_decision_log,
)
from edm.obs.log import level_from_args
from edm.obs.trace_export import export_chrome_trace, write_span_events
from edm.policies import resolve_policy
from edm.spec import SpecError
from edm.sweep import default_grid, sweep
from edm.telemetry import MetricsSnapshotRecorder

POLICY_CHOICES = (*POLICIES, *sorted(POLICY_ALIASES))

log = get_logger("cli")


def _csv(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _add_engine_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--requests", type=int, default=None, help="requests per epoch")
    ap.add_argument("--skew", type=float, default=0.02)


def _overrides(args) -> dict:
    out = {"skew": args.skew}
    if args.epochs is not None:
        out["epochs"] = args.epochs
    if args.requests is not None:
        out["requests_per_epoch"] = args.requests
    if getattr(args, "quick", False):
        out.setdefault("epochs", 32)
        out.setdefault("requests_per_epoch", 1024)
    return out


#: The scenario flags ``run`` and ``sweep`` share: per field, the grid-axis
#: separator, an example spec, and what ``none`` means.  The separator is a
#: character the field's own spec grammar never uses, so one ``sweep`` flag
#: value can list several scenarios.  Faults and service join clauses with
#: ';', endurance bands with ',', and topology uses both (events ';',
#: device-class attributes ',').
SCENARIO_FLAGS = {
    "faults": (",", "fail:3@100;slow:5@50x0.5", "healthy"),
    "endurance": (";", "pe:3000@0-3,10000@4-7", "unlimited rated lifetime"),
    "service": (",", "rate:800;queue:64", "no request-level timing"),
    "topology": ("|", "add:4@128/cap:2,rate:1600;drain:0@192", "static cluster"),
    "redundancy": (",", "ec:4+2", "no redundancy"),
}
SCENARIO_SEPS = {name: sep for name, (sep, _example, _none) in SCENARIO_FLAGS.items()}


def _add_scenario_args(ap: argparse.ArgumentParser, grid: bool) -> None:
    """``--faults`` ... ``--redundancy``: one spec each, or with ``grid`` a
    separated list of specs that become extra sweep grid axes."""
    for name, (sep, example, none) in SCENARIO_FLAGS.items():
        if grid:
            text = (
                f"'{sep}'-separated {name} specs as an extra grid axis "
                f"('none' = {none}), e.g. 'none{sep}{example}'"
            )
        else:
            text = f"{name} spec, e.g. '{example}' ('none' = {none})"
        ap.add_argument(
            f"--{name}", default="", metavar="SPECS" if grid else "SPEC", help=text
        )


def _scenarios(value: str, sep: str) -> list[str]:
    """Split one scenario flag into grid-axis specs; ``none`` (or an empty
    entry) names the scenario-free cluster."""
    parts = [p.strip() for p in value.split(sep) if p.strip()]
    return [("" if p == "none" else p) for p in parts] or [""]


def cmd_run(args) -> int:
    cfg = SimConfig(
        workload=args.workload,
        num_osds=args.osds,
        policy=resolve_policy(args.policy),
        seed=args.seed,
        **{name: getattr(args, name) for name in SCENARIO_SEPS},
        **_overrides(args),
    )
    recorders = []
    decisions = None
    if args.explain is not None:
        decisions = DecisionRecorder(path=args.explain or None)
        recorders.append(decisions)
    snapshot = None
    if args.metrics_out:
        snapshot = MetricsSnapshotRecorder(args.metrics_out)
        recorders.append(snapshot)
    tracer = Tracer(record_events=True) if args.trace else NULL_TRACER
    metrics = simulate(cfg, recorders=tuple(recorders), tracer=tracer)
    if tracer.enabled:
        # Timings ride the trace file; the metrics JSON on stdout keeps the
        # exact shape (and values) of an untraced run.
        metrics.pop("timings", None)
        n = write_span_events(tracer, args.trace, label=cfg.cache_name())
        log.info("appended %d span events to %s", n, args.trace)
    if snapshot is not None:
        snapshot.write_final(metrics)
        log.info("wrote OpenMetrics snapshot to %s", args.metrics_out)
    print(json.dumps(metrics, indent=2))
    if decisions is not None:
        # Opt-in diagnostics go to stderr; stdout stays parseable JSON.
        print(
            f"decision attribution ({decisions.total} decisions):\n"
            + format_attribution(decisions.attribution()),
            file=sys.stderr,
        )
        if decisions.path is not None:
            log.info(
                "decision log: %s (query with `python -m edm explain %s`)",
                decisions.path, decisions.path,
            )
    return 0


def cmd_sweep(args) -> int:
    grid = default_grid(
        workloads=_csv(args.workloads),
        osds=[int(n) for n in _csv(args.osds)],
        policies=[resolve_policy(p) for p in _csv(args.policies)],
        seeds=[int(s) for s in _csv(args.seeds)],
        **{
            name: _scenarios(getattr(args, name), sep)
            for name, sep in SCENARIO_SEPS.items()
        },
        **_overrides(args),
    )
    result = sweep(
        grid,
        cache_dir=Path(args.cache_dir),
        workers=args.workers,
        force=args.force,
        use_cache=not args.no_cache,
        timeseries_dir=args.timeseries,
        record_every=args.record_every,
        run_log=args.run_log,
        progress=args.progress,
        trace_events=args.trace,
    )
    for cfg, record in zip(grid, result.records):
        print(
            f"{cfg.cache_name():44s} load_cov={record['load_cov_mean']:.4f} "
            f"wear_spread={record['wear_spread']:.0f} "
            f"migrations={record['migrations_total']}"
        )
    print(
        f"# {len(grid)} configs: {result.simulated} simulated, "
        f"{result.cache_hits} cache hits, {result.cache_invalidated} invalidated"
    )
    if args.timeseries:
        log.info("per-epoch series in %s/ (*.npz)", args.timeseries)
    if args.run_log:
        log.info("run log appended to %s", args.run_log)
    if args.trace:
        log.info(
            "span events appended to %s (render with `python -m edm trace export %s`)",
            args.trace, args.trace,
        )
    return 0


def cmd_explain(args) -> int:
    records = read_decision_log(args.log, strict=False)
    if not records:
        log.error("no valid decision records in %s", args.log)
        return 1
    matches = query_decisions(
        records,
        chunk=args.chunk,
        osd=args.osd,
        epoch=args.epoch,
        trigger=args.trigger,
        policy=args.policy,
    )
    if not args.summary:
        shown = matches if args.limit <= 0 else matches[: args.limit]
        for record in shown:
            print(format_decision(record))
        if len(matches) > len(shown):
            print(f"# ... {len(matches) - len(shown)} more decisions (raise --limit)")
    print(f"# {len(matches)} of {len(records)} decisions matched")
    print(format_attribution(attribution_summary(matches)))
    return 0


def cmd_trace_export(args) -> int:
    out = args.out if args.out else str(Path(args.events).with_suffix(".json"))
    if Path(out).resolve() == Path(args.events).resolve():
        log.error("output %s would overwrite the input; pass -o", out)
        return 2
    n = export_chrome_trace(args.events, out, strict=False)
    if n == 0:
        log.error("no span events in %s", args.events)
        return 1
    log.info("exported %d span events", n)
    print(out)
    return 0


def cmd_report(args) -> int:
    loaded = report_mod.load_cached_metrics(args.cache_dir)
    if not loaded.metrics:
        log.error(
            "no usable sweep results in %s (%d stale entries); "
            "run `python -m edm sweep` first",
            args.cache_dir,
            loaded.stale,
        )
        return 1
    text = report_mod.render(report_mod.aggregate(loaded.metrics), fmt=args.format)
    if args.out:
        Path(args.out).write_text(text + "\n")
        log.info("wrote %s", args.out)
    else:
        print(text)
    if loaded.stale:
        log.warning("skipped %d stale cache entries", loaded.stale)
    return 0


def cmd_plot(args) -> int:
    from edm.telemetry import plots

    series = plots.load_series_dir(args.timeseries_dir)
    if not series:
        log.error(
            "no .npz series in %s; run `python -m edm sweep --timeseries <dir>` first",
            args.timeseries_dir,
        )
        return 1
    written = plots.render_figures(series, args.out_dir)
    for path in written:
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    # Shared verbosity flags, accepted before or after the subcommand.
    # SUPPRESS keeps a subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="-v: INFO diagnostics, -vv: DEBUG",
    )
    common.add_argument(
        "--log-level", default=argparse.SUPPRESS, metavar="LEVEL",
        help="explicit log level (DEBUG/INFO/WARNING/ERROR); overrides -v",
    )

    ap = argparse.ArgumentParser(prog="python -m edm", description="EDM cluster simulator")
    ap.add_argument("-v", "--verbose", action="count", default=0, help=argparse.SUPPRESS)
    ap.add_argument("--log-level", default=None, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="simulate a single configuration")
    run_p.add_argument("--workload", choices=WORKLOADS, default="deasna")
    run_p.add_argument("--osds", type=int, default=16)
    run_p.add_argument("--policy", choices=POLICY_CHOICES, default="cmt")
    run_p.add_argument("--seed", type=int, default=12345)
    _add_scenario_args(run_p, grid=False)
    run_p.add_argument(
        "--explain",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="capture per-migration decision records (score decomposition per "
        "destination pick) and print an attribution summary on stderr; with "
        "PATH, also stream the records as JSONL for `edm explain`",
    )
    run_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append span-event JSONL (simulate phase timings) to PATH; render "
        "with `edm trace export PATH`",
    )
    run_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics as an OpenMetrics text snapshot "
        "(Prometheus-compatible), updated live every 16 epochs",
    )
    _add_engine_args(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep", parents=[common], help="run a config grid (cached, parallel)"
    )
    sweep_p.add_argument("--workloads", default=",".join(WORKLOADS))
    sweep_p.add_argument("--osds", default="16,20")
    sweep_p.add_argument("--policies", default=",".join(POLICIES))
    sweep_p.add_argument("--seeds", default="12345,54321")
    sweep_p.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR))
    sweep_p.add_argument("--workers", type=int, default=None)
    sweep_p.add_argument("--force", action="store_true", help="ignore cache hits")
    sweep_p.add_argument("--no-cache", action="store_true")
    sweep_p.add_argument(
        "--timeseries",
        metavar="DIR",
        default=None,
        help="also write one per-epoch .npz series per config into DIR",
    )
    sweep_p.add_argument(
        "--record-every",
        type=int,
        default=1,
        help="downsample the time series to every N-th epoch (default 1)",
    )
    sweep_p.add_argument(
        "--run-log",
        metavar="PATH",
        default=None,
        help="append structured JSONL run records (one run_start/run_end per config, "
        "emitted from inside workers, plus sweep-level records)",
    )
    sweep_p.add_argument(
        "--progress",
        action="store_true",
        help="live done/total + ETA + req/s line on stderr while the sweep runs",
    )
    _add_scenario_args(sweep_p, grid=True)
    sweep_p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing: epochs=32, requests=1024 unless given explicitly",
    )
    sweep_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append span-event JSONL (parent sweep stages + worker simulate "
        "phases) to PATH; render with `edm trace export PATH`",
    )
    _add_engine_args(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    explain_p = sub.add_parser(
        "explain",
        parents=[common],
        help="query a decision log: why did each migration land where it did?",
    )
    explain_p.add_argument(
        "log", help="decision JSONL written by `edm run --explain=PATH`"
    )
    explain_p.add_argument("--chunk", type=int, default=None, help="filter by chunk id")
    explain_p.add_argument(
        "--osd", type=int, default=None, help="filter by OSD (source or destination)"
    )
    explain_p.add_argument("--epoch", type=int, default=None, help="filter by epoch")
    explain_p.add_argument(
        "--trigger", choices=TRIGGERS, default=None, help="filter by trigger kind"
    )
    explain_p.add_argument("--policy", default=None, help="filter by policy name")
    explain_p.add_argument(
        "--summary",
        action="store_true",
        help="print only the attribution summary, no per-decision breakdowns",
    )
    explain_p.add_argument(
        "--limit",
        type=int,
        default=20,
        help="max per-decision breakdowns to print (<=0 = unlimited, default 20)",
    )
    explain_p.set_defaults(func=cmd_explain)

    trace_p = sub.add_parser(
        "trace", parents=[common], help="span timeline tools"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_export_p = trace_sub.add_parser(
        "export",
        parents=[common],
        help="convert span-event JSONL into Chrome/Perfetto trace_event JSON",
    )
    trace_export_p.add_argument(
        "events", help="span-event JSONL from `run --trace` / `sweep --trace`"
    )
    trace_export_p.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="PATH",
        help="output trace JSON (default: the input path with a .json suffix); "
        "open at https://ui.perfetto.dev or chrome://tracing",
    )
    trace_export_p.set_defaults(func=cmd_trace_export)

    report_p = sub.add_parser(
        "report",
        parents=[common],
        help="aggregate cached sweep results into the paper's comparison table",
    )
    report_p.add_argument(
        "cache_dir",
        nargs="?",
        default=str(DEFAULT_CACHE_DIR),
        help=f"sweep cache directory (default {DEFAULT_CACHE_DIR})",
    )
    report_p.add_argument("--format", choices=("markdown", "json"), default="markdown")
    report_p.add_argument("--out", default=None, help="write to file instead of stdout")
    report_p.set_defaults(func=cmd_report)

    plot_p = sub.add_parser(
        "plot",
        parents=[common],
        help="render the paper's figures from saved time series as SVG",
    )
    plot_p.add_argument(
        "timeseries_dir", help="directory of .npz series from `sweep --timeseries`"
    )
    plot_p.add_argument("--out-dir", default="figures", help="output directory (default figures/)")
    plot_p.set_defaults(func=cmd_plot)

    args = ap.parse_args(argv)
    configure_logging(
        level_from_args(getattr(args, "verbose", 0), getattr(args, "log_level", None))
    )
    try:
        return args.func(args)
    except SpecError as err:
        # A malformed or infeasible scenario spec is a usage error: one
        # line on stderr and argparse's exit status, no traceback.
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
