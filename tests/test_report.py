"""Report aggregation and the report/plot CLI subcommands."""

import json
import pickle
import xml.etree.ElementTree as ET

import pytest

from conftest import cfg_factory
from edm import report
from edm.cache import ResultCache
from edm.catalog import COLUMNS
from edm.cli import main
from edm.sweep import default_grid, sweep
from edm.config import POLICIES, SimConfig, scenario_suffix
from edm.telemetry.plots import POLICY_COLORS

TINY = dict(epochs=16, requests_per_epoch=256, chunks_per_osd=8)


@pytest.fixture
def swept_cache(tmp_path):
    grid = default_grid(
        workloads=("deasna", "lair62"),
        osds=(4,),
        policies=("baseline", "cmt"),
        seeds=(1, 2),
        **TINY,
    )
    sweep(grid, cache_dir=tmp_path / "cache", workers=1, timeseries_dir=tmp_path / "ts")
    return tmp_path


def test_load_and_aggregate(swept_cache):
    loaded = report.load_cached_metrics(swept_cache / "cache")
    assert loaded.stale == 0
    assert len(loaded.metrics) == 8
    cells = report.aggregate(loaded.metrics)
    assert [(c["workload"], c["policy"]) for c in cells] == [
        ("deasna", "baseline"),
        ("deasna", "cmt"),
        ("lair62", "baseline"),
        ("lair62", "cmt"),
    ]
    assert all(c["runs"] == 2 for c in cells)  # two seeds averaged per cell
    baseline = next(c for c in cells if c["policy"] == "baseline")
    assert baseline["migration_cost_mb"] == 0.0


def test_stale_entries_skipped(swept_cache):
    cache_dir = swept_cache / "cache"
    victim = sorted(cache_dir.glob("*.pkl"))[0]
    victim.write_bytes(b"not a pickle")
    loaded = report.load_cached_metrics(cache_dir)
    assert loaded.stale == 1
    assert len(loaded.metrics) == 7


def test_report_leaves_stale_entries_on_disk(swept_cache, capsys):
    # `edm report` only reads: an entry in another payload format is
    # counted stale and stays where it is; the sweep's cache deletes it.
    cache_dir = swept_cache / "cache"
    victim = sorted(cache_dir.glob("*.pkl"))[0]
    payload = pickle.loads(victim.read_bytes())
    payload["payload_version"] = 0
    victim.write_bytes(pickle.dumps(payload))
    assert main(["report", str(cache_dir)]) == 0
    assert "| deasna | baseline |" in capsys.readouterr().out
    assert report.load_cached_metrics(cache_dir).stale == 1
    assert victim.exists()
    cache = ResultCache(cache_dir)
    assert cache.load(SimConfig.from_dict(payload["config"])) is None
    assert cache.invalidated == 1
    assert not victim.exists()


def test_entry_with_removed_kernel_field_is_fresh(tmp_path):
    # Cache entries written while SimConfig still had a ``kernel`` field
    # store it in their config dict; it never fed the hash, so the entry is
    # fresh for the report exactly as it is a hit for sweep().
    cfg = cfg_factory()
    cache = ResultCache(tmp_path)
    metrics = {"workload": cfg.workload, "policy": cfg.policy}
    path = cache.store(cfg, metrics)
    payload = pickle.loads(path.read_bytes())
    # The hash this entry was written under before the field's removal.
    assert payload["config_hash"] == (
        "b41981ad5aade24e02872f7c0ab28056391d247ecf796084eb4d6b1aacffa497"
    )
    payload["config"]["kernel"] = "auto"
    path.write_bytes(pickle.dumps(payload))
    loaded = report.load_cached_metrics(tmp_path)
    assert (loaded.stale, loaded.metrics) == (0, [metrics])
    assert cache.load(cfg) == metrics
    # Hashed content that differs is still rejected.
    payload["config"]["heat_alpha"] = 0.9
    path.write_bytes(pickle.dumps(payload))
    assert report.load_cached_metrics(tmp_path).stale == 1


def test_render_formats(swept_cache):
    cells = report.aggregate(report.load_cached_metrics(swept_cache / "cache").metrics)
    md = report.render(cells, fmt="markdown")
    assert md.splitlines()[0].startswith("| workload | policy | runs |")
    parsed = json.loads(report.render(cells, fmt="json"))
    assert len(parsed) == 4
    with pytest.raises(ValueError, match="unknown report format"):
        report.render(cells, fmt="yaml")


def test_service_columns_appear_only_with_a_service_scenario(tmp_path):
    grid = default_grid(
        workloads=("deasna",),
        osds=(4,),
        policies=("cmt",),
        seeds=(1,),
        service=("", "rate:120;queue:64"),
        **TINY,
    )
    sweep(grid, cache_dir=tmp_path / "cache", workers=1)
    cells = report.aggregate(report.load_cached_metrics(tmp_path / "cache").metrics)
    assert [c["service"] for c in cells] == ["", "rate:120;queue:64"]
    serviced = cells[1]
    assert serviced["service_lat_p50"] <= serviced["service_lat_p99"]
    assert "service_lat_p50" not in cells[0]

    md = report.render(cells, fmt="markdown")
    header = md.splitlines()[0]
    assert "| service |" in header
    assert header.endswith("| lat p50 | lat p99 | lat p999 | mig spike |")
    untimed_row = next(line for line in md.splitlines() if "untimed" in line)
    assert untimed_row.endswith("| - | - | - | - |")  # no latency numbers to show

    # A service-free cache keeps the historical table shape.
    plain = report.aggregate([m for m in report.load_cached_metrics(
        tmp_path / "cache").metrics if not m.get("service")])
    assert "service" not in report.render(plain, fmt="markdown").splitlines()[0]


def test_overflowed_tail_latency_propagates_as_inf(tmp_path, capsys):
    """A +inf percentile (past the 1e4-epoch top edge) is a real tail: it
    must reach the report as inf, not be averaged away or shown as '-'.
    Only NaN (an empty histogram) is excluded from a cell mean."""
    grid = default_grid(
        workloads=("deasna",), osds=(8,), policies=("cmt",), seeds=(7, 8),
        service=("rate:2",), epochs=32, requests_per_epoch=4096, chunks_per_osd=8,
    )
    sweep(grid, cache_dir=tmp_path / "cache", workers=1)
    rows = report.load_cached_metrics(tmp_path / "cache").metrics
    assert all(r["service_lat_p999"] == float("inf") for r in rows)
    cells = report.aggregate(rows)
    assert cells[0]["service_lat_p999"] == float("inf")
    assert 0 < cells[0]["service_lat_p50"] < float("inf")
    assert main(["report", str(tmp_path / "cache")]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    lat_p99, lat_p999 = [v.strip() for v in row.split("|")][-4:-2]
    assert (lat_p99, lat_p999) == ("inf", "inf")
    assert main(["report", str(tmp_path / "cache"), "--format", "json"]) == 0
    assert "Infinity" in capsys.readouterr().out

    # NaN alone is dropped from the mean; inf beside a finite value wins.
    base = {m.key: 1.0 for m in COLUMNS if m.scenario is None}
    nan_row = {**base, "workload": "w", "policy": "p", "service": "rate:2",
               "service_lat_p50": float("nan"), "service_lat_p99": float("inf"),
               "service_lat_p999": float("inf"), "migration_spike_ratio": 2.0}
    finite_row = {**nan_row, "service_lat_p50": 3.0, "service_lat_p99": 5.0}
    (cell,) = report.aggregate([nan_row, finite_row])
    assert cell["service_lat_p50"] == 3.0
    assert cell["service_lat_p99"] == float("inf")
    assert cell["migration_spike_ratio"] == 2.0


def test_report_cli_markdown(swept_cache, capsys):
    assert main(["report", str(swept_cache / "cache")]) == 0
    out = capsys.readouterr().out
    assert "| workload | policy |" in out
    assert "cmt" in out


def test_report_cli_json_to_file(swept_cache, tmp_path):
    out_file = tmp_path / "report.json"
    assert main(["report", str(swept_cache / "cache"), "--format", "json", "--out", str(out_file)]) == 0
    assert len(json.loads(out_file.read_text())) == 4


def test_report_cli_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "no usable sweep results" in capsys.readouterr().err


def test_policy_colors_are_fixed_slots():
    # Color follows the entity: every policy owns a slot, in POLICIES order.
    assert list(POLICY_COLORS) == list(POLICIES)
    assert len(set(POLICY_COLORS.values())) == len(POLICIES)


def _marks(path, tag):
    return len(ET.parse(path).getroot().findall(f"{{http://www.w3.org/2000/svg}}{tag}"))


def test_plot_cli_renders_figures(swept_cache, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["plot", str(swept_cache / "ts"), "--out-dir", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {
        "load_cov_deasna-4osd.svg",
        "load_cov_lair62-4osd.svg",
        "wear_final_deasna-4osd.svg",
        "wear_final_lair62-4osd.svg",
        "migration_cost_4osd.svg",
    }
    assert sorted(capsys.readouterr().out.split()) == sorted(str(out_dir / n) for n in names)
    # 2 policies x 2 seeds per group; bars are policies x OSDs and
    # policies x workloads.
    for workload in ("deasna", "lair62"):
        assert _marks(out_dir / f"load_cov_{workload}-4osd.svg", "polyline") == 4
        assert _marks(out_dir / f"wear_final_{workload}-4osd.svg", "rect") == 2 * 4
    assert _marks(out_dir / "migration_cost_4osd.svg", "rect") == 2 * 2


def test_plot_cli_keeps_scenarios_apart(tmp_path, capsys):
    """A sweep over a topology and a fault axis plots one figure set per
    scenario combination, each load-CoV figure holding only its own runs:
    elastic runs' wider wear rows never meet static ones in one mean, and
    healthy and faulted runs never share a line chart."""
    ts, figs = tmp_path / "ts", tmp_path / "figs"
    assert main([
        "sweep", "--workloads", "deasna", "--osds", "4", "--policies", "baseline,cmt",
        "--seeds", "1", "--epochs", "16", "--requests", "256",
        "--topology", "none|add:2@8", "--faults", "none,fail:1@10",
        "--cache-dir", str(tmp_path / "cache"), "--workers", "1", "--timeseries", str(ts),
    ]) == 0
    assert main(["plot", str(ts), "--out-dir", str(figs)]) == 0
    suffixes = {
        scenario_suffix({"topology": t, "faults": f})
        for t in ("", "add:2@8") for f in ("", "fail:1@10")
    }
    assert len(suffixes) == 4 and "" in suffixes
    names = {p.name for p in figs.iterdir()}
    assert names == {
        name for sfx in suffixes
        for name in (f"load_cov_deasna-4osd{sfx}.svg", f"wear_final_deasna-4osd{sfx}.svg",
                     f"migration_cost_4osd{sfx}.svg")
    }
    for sfx in suffixes:
        # One line per policy, one seed each; the elastic figures' bars
        # span the grown cluster.
        assert _marks(figs / f"load_cov_deasna-4osd{sfx}.svg", "polyline") == 2
        width = 6 if "-t" in sfx else 4
        assert _marks(figs / f"wear_final_deasna-4osd{sfx}.svg", "rect") == 2 * width


def _title(path):
    return ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}text").text


def test_plot_titles_name_the_scenario_specs(tmp_path, capsys):
    """A scenario's figures name its specs in their titles, not only the
    digest in their stems; plain figures name none."""
    ts, figs = tmp_path / "ts", tmp_path / "figs"
    assert main([
        "sweep", "--workloads", "deasna", "--osds", "4", "--policies", "baseline,cmt",
        "--seeds", "1", "--epochs", "16", "--requests", "256", "--topology", "none|add:2@8",
        "--cache-dir", str(tmp_path / "cache"), "--workers", "1", "--timeseries", str(ts),
    ]) == 0
    assert main(["plot", str(ts), "--out-dir", str(figs)]) == 0
    sfx = scenario_suffix({"topology": "add:2@8"})
    for stem in ("load_cov_deasna-4osd", "wear_final_deasna-4osd", "migration_cost_4osd"):
        scenario = _title(figs / f"{stem}{sfx}.svg")
        assert scenario.endswith(f"{sfx} (topology add:2@8)"), scenario
        plain = _title(figs / f"{stem}.svg")
        assert "add:2@8" not in plain and "(" not in plain, plain


def test_plot_cli_empty_dir(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["plot", str(tmp_path / "empty")]) == 1
    assert "no .npz series" in capsys.readouterr().err
