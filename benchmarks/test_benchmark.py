"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest benchmarks -q``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_quick_run_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    out = proc.stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert proc.returncode == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        for wl in WORKLOADS:
            assert result["metrics"][f"{wl}/{metric['name']}"]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in out.splitlines()
        ), metric["name"]
    assert out.count("matches pinned") == len(WORKLOADS)


def test_perturbed_digest_fails_every_repetition(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.DIGESTS.read_text())
    pins["quick"]["composed"] = "0" * 64
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "DIGESTS", digests)
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    args = argparse.Namespace(child="composed", seed=run.DEFAULT_SEED, seconds=0, trace=0, quick=True)
    code = run.child(args)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] == result["attempted"] > 0  # failed_frac == 1
    assert any("differs from the pinned" in p for p in result["problems"])


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def test_verdict_classes():
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], "higher", 0.1) == "improved"
    assert compare.verdict(PARENT, [v * 0.85 for v in PARENT], "higher", 0.1) == "worse"
    assert compare.verdict(PARENT, [v * 1.002 for v in PARENT], "higher", 0.1) == "unchanged"
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert compare.verdict(wide, [v * 0.97 for v in wide], "higher", 0.1) == "unresolved"
    assert compare.verdict(PARENT, [v * 0.95 for v in PARENT], "lower", 0.1) == "improved"


def _result(value: float, digest: str, kernels_s: float, failed: int) -> dict:
    return {"workloads": {"composed": {
        "seed": 12345,
        "attempted": 20,
        "failed": failed,
        "digest": digest,
        "end_to_end": {"sim_req_per_ref_s": {"value": value, "unit": "req/ref-s"}},
        "per_layer": {"engine.kernels.self_s": {"value": kernels_s, "unit": "s"},
                      "service.self_s": {"value": 0.2, "unit": "s"}},
    }}}


def test_compare_flags_worse_metrics_digest_and_layer(tmp_path, capsys):
    sides = (("parent", 1.0, "a" * 64, 0.02, 0), ("change", 0.7, "b" * 64, 0.05, 1))
    for side, scale, digest, kernels, failed in sides:
        d = tmp_path / side
        d.mkdir()
        for i, v in enumerate(PARENT):
            result = _result(v * scale, digest, kernels, failed if i == 0 else 0)
            (d / f"run-{i:02d}.json").write_text(json.dumps(result))
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[0]: line.split()[-1] for line in lines if line.split()[1:2] == ["parent"]}
    assert verdicts == {"sim_req_per_ref_s": "worse", "failed_frac": "worse"}
    out = "\n".join(lines)
    assert "DIGEST DIFFERS at seed 12345" in out
    ranked = out.split("largest increase first:")[1].split()
    assert ranked[0] == "engine.kernels.self_s"
