"""OpenMetrics exposition: catalogue rendering, metric mapping, live snapshots."""

import hashlib
import json
import math
import re

import pytest

from conftest import cfg_factory
from edm.cli import main
from edm.catalog import METRICS
from edm.engine.core import simulate
from edm.telemetry import (
    MetricsSnapshotRecorder,
    Recorder,
    openmetrics_text,
    write_openmetrics,
)
from edm.telemetry.openmetrics import format_value


# --- value / label formatting ------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (3, "3"),
        (3.0, "3"),
        (0.25, "0.25"),
        (float("nan"), "NaN"),
        (float("inf"), "+Inf"),
        (float("-inf"), "-Inf"),
        (-1, "-1"),
    ],
)
def test_format_value(value, expected):
    assert format_value(value) == expected


def test_render_basic_families(tmp_path):
    text = openmetrics_text({"load_cov_final": 0.25, "total_requests": 4096})
    assert text == (
        "# TYPE edm_run info\n"
        "# HELP edm_run Identity of the run this snapshot describes.\n"
        "edm_run_info 1\n"
        # Counter samples carry the _total suffix; the family name does not,
        # and families render in catalogue order, not in the dict's.
        "# TYPE edm_requests counter\n"
        "# HELP edm_requests Requests routed over the run.\n"
        "edm_requests_total 4096\n"
        "# TYPE edm_load_cov_final gauge\n"
        "# HELP edm_load_cov_final Load CoV of the latest epoch simulated.\n"
        "edm_load_cov_final 0.25\n"
        "# EOF\n"
    )
    path = tmp_path / "out.prom"
    write_openmetrics({"load_cov_final": 0.25, "total_requests": 4096}, path)
    assert path.read_text() == text


def test_render_escapes_labels_and_help(monkeypatch):
    from edm.catalog import Metric
    from edm.telemetry import openmetrics

    row = Metric("g", 'help with "quotes"\nand newline', "gauge")
    monkeypatch.setattr(openmetrics, "METRICS", (*METRICS, row))
    text = openmetrics_text({"workload": 'va"l\\ue\n', "g": 1})
    assert '# HELP edm_g help with \\"quotes\\"\\nand newline' in text
    assert 'edm_run_info{workload="va\\"l\\\\ue\\n"} 1' in text
    assert "edm_g 1\n" in text


# --- mapping a run's metrics dict --------------------------------------------


def test_registry_from_metrics_healthy_run():
    metrics = simulate(cfg_factory())
    text = openmetrics_text(metrics)
    assert 'edm_run_info{workload="deasna",policy="cmt"' in text
    assert f"edm_requests_total {metrics['total_requests']}" in text
    assert "edm_load_cov_mean " in text
    assert "edm_wear_spread " in text
    # One wear sample per OSD.
    assert text.count('edm_osd_wear{osd="') == metrics["num_osds"]
    # Healthy, unrated, unserviced runs expose none of the conditional blocks.
    assert "edm_fault_" not in text
    assert "edm_remaining_life" not in text
    assert "edm_service_" not in text
    assert text.endswith("# EOF\n")


def test_registry_from_metrics_faulted_endured_run():
    metrics = simulate(cfg_factory(faults="fail:1@12", endurance="pe:2000"))
    text = openmetrics_text(metrics)
    assert "edm_fault_failures_total 1" in text
    assert "edm_replacement_moves_total " in text
    assert "edm_remaining_life_min " in text
    assert "edm_wearouts_total " in text
    assert "edm_osds_alive " in text


def test_registry_from_metrics_redundant_degraded_run():
    metrics = simulate(cfg_factory(num_osds=8, redundancy="ec:4+2", faults="fail:1@12"))
    text = openmetrics_text(metrics)
    assert "edm_reconstruction_chunks_total " in text
    assert "edm_reconstruction_reads_total " in text
    assert "edm_reconstruction_read_megabytes " in text
    assert "edm_reconstruction_write_megabytes " in text
    assert "edm_data_loss_chunks_total 0" in text
    # A plain run exposes none of the redundancy block.
    plain = openmetrics_text(simulate(cfg_factory()))
    assert "edm_reconstruction_" not in plain
    assert "edm_data_loss_" not in plain


def test_registry_from_metrics_serviced_run_latency_unit():
    # Latencies are measured in epochs of service time, not seconds.
    metrics = simulate(cfg_factory(service="rate:2", requests_per_epoch=4096))
    text = openmetrics_text(metrics)
    for q in ("50", "99", "999"):
        assert f"edm_service_lat_p{q}_epochs " in text
    assert "in epochs of service time." in text
    assert "_seconds" not in text
    # An overflowed tail exports as +Inf, past the 1e4-epoch top edge.
    assert "edm_service_lat_p999_epochs +Inf" in text


def test_sentinel_and_partial_metrics_pass_through():
    # predicted_first_wearout_epoch uses -1 as its "none in sight" sentinel;
    # the gauge carries it through as a plain number, not Inf, and mapping a
    # partial dict only emits the families its keys cover.
    text = openmetrics_text({"predicted_first_wearout_epoch": -1})
    assert "edm_predicted_first_wearout_epoch -1" in text
    assert "edm_load_cov_mean" not in text


# sha256 of the exposition of a faulted, rated, serviced, elastic and
# redundant run, as the renderer before openmetrics_text wrote it.
COMPOSED_DIGEST = "f6ae1c21cda441c5d782d0be46366006d0736ef8ac0ca1a142e8da5adff5e9f8"


def test_composed_run_exposition_pinned():
    metrics = simulate(cfg_factory(
        num_osds=8, epochs=48, faults="fail:1@12", endurance="pe:2000", service="rate:2",
        topology="add:2@8;drain:5@20", redundancy="ec:4+2",
    ))
    text = openmetrics_text(metrics)
    for family in ("fault_failures", "wearouts", "service_lat_p99_epochs",
                   "reconstruction_chunks", "osd_wear"):
        assert f"# TYPE edm_{family} " in text
    assert hashlib.sha256(text.encode()).hexdigest() == COMPOSED_DIGEST


# --- live snapshot recorder --------------------------------------------------


def test_snapshot_recorder_writes_periodically(tmp_path):
    out = tmp_path / "live.prom"
    rec = MetricsSnapshotRecorder(out, every=8)
    cfg = cfg_factory(epochs=32)
    metrics = simulate(cfg, recorders=(rec,))
    # 32 epochs / every-8 = 4 periodic writes + 1 finalize write.
    assert rec.snapshots == 5
    text = out.read_text()
    assert f"edm_epochs_total {cfg.epochs}" in text
    assert f"edm_requests_total {metrics['total_requests']}" in text
    assert "edm_osds_alive 4" in text
    assert text.endswith("# EOF\n")
    # Attaching the recorder never perturbs the run.
    assert metrics == simulate(cfg)


def test_live_snapshots_export_only_catalogue_families(tmp_path):
    """Mid-run snapshots render catalogue rows: every family is one of the
    catalogue's, with the catalogue's type and help text."""
    out = tmp_path / "live.prom"
    seen = []

    class Reader(Recorder):
        def on_block(self, state, block):
            if out.exists():
                seen.append(out.read_text())

    cfg = cfg_factory(epochs=32, migrate_interval=8)
    simulate(cfg, recorders=(MetricsSnapshotRecorder(out, every=8), Reader()))
    catalogue = {f"edm_{m.family}": m for m in METRICS if m.type}
    # One snapshot per block, written at its last epoch: a block is cut
    # before each migration round.
    assert len(seen) == 4
    for epochs, text in zip((8, 16, 24, 32), seen):
        typed = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
        assert typed.keys() <= catalogue.keys(), sorted(typed.keys() - catalogue.keys())
        for name, type_ in typed.items():
            assert type_ == catalogue[name].type, name
            if name != "edm_run":
                assert f"# HELP {name} {catalogue[name].help}\n" in text
        assert f"edm_epochs_total {epochs}\n" in text
        assert 'edm_run_info{workload="deasna",policy="cmt"' in text


def test_snapshot_recorder_rejects_bad_every(tmp_path):
    with pytest.raises(ValueError, match="every"):
        MetricsSnapshotRecorder(tmp_path / "x.prom", every=0)


def test_write_final_replaces_live_snapshot(tmp_path):
    out = tmp_path / "final.prom"
    rec = MetricsSnapshotRecorder(out)
    metrics = simulate(cfg_factory(), recorders=(rec,))
    rec.write_final(metrics)
    text = out.read_text()
    assert "edm_run_info{" in text  # full end-of-run exposition
    assert "edm_wear_spread " in text


# --- CLI ---------------------------------------------------------------------


def test_cli_run_metrics_out(tmp_path, capsys):
    out = tmp_path / "metrics.prom"
    assert (
        main(
            [
                "run", "--workload", "deasna", "--osds", "4",
                "--epochs", "8", "--requests", "128",
                "--metrics-out", str(out),
            ]
        )
        == 0
    )
    metrics = json.loads(capsys.readouterr().out)
    text = out.read_text()
    # The snapshot agrees with the metrics JSON the run printed.
    assert f"edm_migrations_total {metrics['migrations_total']}" in text
    assert f"edm_requests_total {metrics['total_requests']}" in text
    for line in text.splitlines():
        assert line.startswith("#") or line.split()[-1] not in ("",)
    assert text.endswith("# EOF\n")


def test_exposition_parses_line_by_line():
    """Every non-comment line is `name{labels} value` with a finite-or-literal
    value -- the shape Prometheus' text parser expects."""
    metrics = simulate(cfg_factory(faults="fail:1@12", endurance="pe:2000"))
    text = openmetrics_text(metrics)
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        assert name_part
        if value not in ("NaN", "+Inf", "-Inf"):
            math.isfinite(float(value))
