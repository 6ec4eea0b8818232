"""Command-line interface: ``python -m edm {run,sweep,explain,trace,report,plot}``.

Primary results (metrics JSON, sweep tables, report output) go to stdout;
everything diagnostic goes through the ``edm.*`` package logger on stderr,
controlled by the global ``-v``/``-vv`` and ``--log-level`` flags (accepted
both before and after the subcommand).

``run`` and ``sweep`` take one ``--<field>`` flag per scenario field of
:data:`edm.config.SCENARIOS`, whose help quotes that table's example spec
and what ``none`` means; a ``sweep`` flag lists several specs, joined by
the field's separator, as an extra grid axis.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from edm import report as report_mod
from edm.cache import DEFAULT_CACHE_DIR
from edm.config import POLICY_ALIASES, POLICIES, SCENARIOS, WORKLOADS, SimConfig
from edm.engine.core import simulate
from edm.obs import RunLogWriter, configure_logging, get_logger, new_id, read_run_log
from edm.obs.decisions import (
    TRIGGERS,
    DecisionRecorder,
    attribution_summary,
    format_attribution,
    format_decision,
    query_decisions,
)
from edm.obs.log import level_from_args
from edm.obs.trace_export import export_chrome_trace
from edm.policies import resolve_policy
from edm.spec import SpecError
from edm.sweep import default_grid, logged_run, sweep
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


def _add_scenario_args(ap: argparse.ArgumentParser, grid: bool) -> None:
    """``--faults`` ... ``--redundancy``, one per :data:`~edm.config.SCENARIOS`
    field: one spec each, or with ``grid`` a separated list of specs that
    become extra sweep grid axes."""
    for name, s in SCENARIOS.items():
        if grid:
            text = (
                f"'{s.sep}'-separated {name} specs as an extra grid axis "
                f"('none' = {s.none}), e.g. 'none{s.sep}{s.example}'"
            )
        else:
            text = f"{name} spec, e.g. '{s.example}' ('none' = {s.none})"
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
        **{name: getattr(args, name) for name in SCENARIOS},
        **_overrides(args),
    )
    writer = RunLogWriter(args.run_log) if args.run_log else None
    run_id = new_id()
    recorders = []
    decisions = None
    if args.explain:
        emit = None
        if writer is not None:
            emit = functools.partial(
                writer.emit, "decision", run_id=run_id, config=cfg.cache_name()
            )
        decisions = DecisionRecorder(emit=emit)
        recorders.append(decisions)
    snapshot = None
    if args.metrics_out:
        snapshot = MetricsSnapshotRecorder(args.metrics_out)
        recorders.append(snapshot)
    if writer is not None:
        metrics = logged_run(cfg, writer, run_id, True, tuple(recorders))
        log.info("run log appended to %s", args.run_log)
    else:
        metrics = simulate(cfg, recorders=tuple(recorders))
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
    return 0


def cmd_sweep(args) -> int:
    if args.trace and not args.run_log:
        print("error: --trace needs --run-log to write span records to", file=sys.stderr)
        return 2
    grid = default_grid(
        workloads=_csv(args.workloads),
        osds=[int(n) for n in _csv(args.osds)],
        policies=[resolve_policy(p) for p in _csv(args.policies)],
        seeds=[int(s) for s in _csv(args.seeds)],
        **{name: _scenarios(getattr(args, name), s.sep) for name, s in SCENARIOS.items()},
        **_overrides(args),
    )
    result = sweep(
        grid,
        cache_dir=None if args.no_cache else Path(args.cache_dir),
        workers=args.workers,
        force=args.force,
        timeseries_dir=args.timeseries,
        record_every=args.record_every,
        run_log=args.run_log,
        progress=args.progress,
        trace=args.trace,
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
    return 0


def cmd_explain(args) -> int:
    records = [r for r in read_run_log(args.log, strict=False) if r["event"] == "decision"]
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
    out = args.out if args.out else str(Path(args.log).with_suffix(".json"))
    if Path(out).resolve() == Path(args.log).resolve():
        log.error("output %s would overwrite the input; pass -o", out)
        return 2
    n = export_chrome_trace(args.log, out, strict=False)
    if n == 0:
        log.error("no span records in %s", args.log)
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
        action="store_true",
        help="capture per-migration decision records (score decomposition per "
        "destination pick) and print an attribution summary on stderr; with "
        "--run-log, also write them as decision records for `edm explain`",
    )
    run_p.add_argument(
        "--run-log",
        default=None,
        metavar="PATH",
        help="append the run's JSONL run-log records to PATH: run_start/run_end, "
        "fault/topology/service records, one span record per simulate phase "
        "occurrence (render with `edm trace export PATH`) and, with --explain, "
        "decision records",
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
        action="store_true",
        help="add span records (parent sweep stages + worker simulate phases) "
        "to the --run-log; render with `edm trace export PATH`",
    )
    _add_engine_args(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    explain_p = sub.add_parser(
        "explain",
        parents=[common],
        help="query a run log's decisions: why did each migration land where it did?",
    )
    explain_p.add_argument(
        "log", help="run log written by `edm run --explain --run-log PATH`"
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
        help="convert a run log's span records into Chrome/Perfetto trace_event JSON",
    )
    trace_export_p.add_argument(
        "log", help="run log from `run --run-log` / `sweep --trace --run-log`"
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
