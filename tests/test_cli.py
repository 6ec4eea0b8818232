"""CLI surface: run/sweep subcommands parse and produce output."""

import json

import pytest

from edm.cli import SCENARIO_SEPS, main


def test_run_prints_metrics(capsys):
    assert (
        main(
            [
                "run",
                "--workload", "deasna",
                "--osds", "4",
                "--policy", "edm",
                "--epochs", "8",
                "--requests", "128",
            ]
        )
        == 0
    )
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["policy"] == "cmt"
    assert metrics["epochs"] == 8


def test_sweep_smoke(tmp_path, capsys):
    assert (
        main(
            [
                "sweep",
                "--workloads", "deasna",
                "--osds", "4",
                "--policies", "baseline,cmt",
                "--seeds", "1",
                "--epochs", "8",
                "--requests", "128",
                "--cache-dir", str(tmp_path),
                "--workers", "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "deasna-4osd-baseline" in out
    assert "2 configs: 2 simulated" in out


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--policy", "bogus"])


def test_sweep_stream_flag(tmp_path):
    # Cached workers always return slim summaries; there is no flag for it.
    with pytest.raises(SystemExit):
        main(["sweep", "--cache-dir", str(tmp_path), "--stream"])


def test_sweep_no_cache_pooled_matches_cached_table(tmp_path, capsys):
    args = [
        "sweep",
        "--workloads", "deasna",
        "--osds", "4",
        "--policies", "baseline,cmt",
        "--seeds", "1",
        "--epochs", "8",
        "--requests", "128",
        "--workers", "2",
    ]
    assert main([*args, "--cache-dir", str(tmp_path / "c")]) == 0
    cached = capsys.readouterr().out
    # The cached table renders from the workers' slim summaries.
    assert "deasna-4osd-baseline" in cached and "load_cov=" in cached
    assert "2 configs: 2 simulated" in cached
    # Uncached, full metrics cross the pool and render the same table.
    assert main([*args, "--cache-dir", str(tmp_path / "none"), "--no-cache"]) == 0
    assert capsys.readouterr().out == cached
    assert not (tmp_path / "none").exists()


def test_sweep_with_timeseries_flag(tmp_path, capsys):
    ts_dir = tmp_path / "ts"
    assert (
        main(
            [
                "sweep",
                "--workloads", "deasna",
                "--osds", "4",
                "--policies", "edm",
                "--seeds", "1",
                "--epochs", "8",
                "--requests", "128",
                "--cache-dir", str(tmp_path / "cache"),
                "--timeseries", str(ts_dir),
                "--record-every", "2",
                "--workers", "1",
                "-v",
            ]
        )
        == 0
    )
    # Diagnostics go through the package logger on stderr at -v.
    err = capsys.readouterr().err
    assert "per-epoch series in" in err
    # The edm alias lands on the canonical cmt cache key.
    assert (ts_dir / "deasna-4osd-cmt-s0.02-r1.npz").exists()


def test_stable_public_api():
    import edm

    for name in (
        "SimConfig", "SweepResult", "Recorder", "TimeSeries", "TimeSeriesRecorder",
        "config_hash", "default_grid", "resolve_policy", "simulate", "sweep",
    ):
        assert name in edm.__all__
        assert getattr(edm, name) is not None


def test_run_with_redundancy_flag(capsys):
    assert (
        main(
            [
                "run",
                "--osds", "8",
                "--policy", "pswl",
                "--epochs", "8",
                "--requests", "128",
                "--redundancy", "rep:3",
            ]
        )
        == 0
    )
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["policy"] == "pswl"
    assert metrics["redundancy"] == "rep:3"
    assert metrics["reconstruction_chunks_total"] == 0  # healthy run


def test_sweep_redundancy_axis(tmp_path, capsys):
    assert (
        main(
            [
                "sweep",
                "--workloads", "deasna",
                "--osds", "8",
                "--policies", "cmt",
                "--seeds", "1",
                "--epochs", "8",
                "--requests", "128",
                "--redundancy", "none,rep:3",
                "--cache-dir", str(tmp_path),
                "--workers", "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 configs: 2 simulated" in out
    assert "-g" in out  # the redundant config's cache-name suffix


def test_run_none_flags_mean_no_scenario(capsys):
    base = ["run", "--osds", "4", "--epochs", "8", "--requests", "128"]
    assert main(base) == 0
    plain = json.loads(capsys.readouterr().out)
    none = [f"--{name}=none" for name in SCENARIO_SEPS]
    assert main(base + none) == 0
    metrics = json.loads(capsys.readouterr().out)
    # "none" canonicalizes to "" in SimConfig: every scenario field echoes
    # empty (healthy runs omit the scenario blocks) and the run is the plain one.
    assert all(metrics.get(name, "") == "" for name in SCENARIO_SEPS)
    assert metrics == plain


# A malformed spec, and the ec:4+2 fail + drain plan that used to pass
# validation and die mid-run in re-placement.
BAD_SPECS = {
    "malformed": (["--faults", "bogus:1"], "error: bad fault event 'bogus:1'; expected"),
    "infeasible": (
        ["--osds", "8", "--redundancy", "ec:4+2",
         "--faults", "fail:1@4;fail:2@6", "--topology", "drain:3@10"],
        "error: fault plan 'fail:1@4;fail:2@6' and topology plan 'drain:3@10' "
        "leave 6 alive at epoch 10, so 'drain:3@10' would cross the survivor "
        "floor of 6 that redundancy scheme 'ec:4+2' needs",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_run_reports_a_spec_error_as_one_line(name, capsys):
    flags, message = BAD_SPECS[name]
    assert main(["run", "--epochs", "8", "--requests", "128", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_sweep_reports_a_spec_error_as_one_line(name, tmp_path, capsys):
    flags, message = BAD_SPECS[name]
    args = ["sweep", "--workloads", "deasna", "--policies", "cmt", "--seeds", "1",
            "--epochs", "8", "--requests", "128", "--cache-dir", str(tmp_path),
            "--workers", "1", *flags]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # nothing ran, nothing was cached
