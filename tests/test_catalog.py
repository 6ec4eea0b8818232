"""The metrics catalogue: complete, produced, documented, and the keys that
the benchmark and the sweep read.

``edm.catalog.METRICS`` is the one table of metric facts.  These tests hold
it to the engine (every row is produced by some run, no run produces a key
without a row), to the README (its metrics reference is rendered from the
catalogue), and to the consumers that read keys by name and would silently
skip a renamed one.
"""

import importlib
from pathlib import Path

import pytest

from conftest import cfg_factory
from edm.catalog import KEYS, METRICS
from edm.config import SCENARIOS
from edm.engine.core import simulate
from edm.redundancy.runtime import RedundancyRuntime
from edm.sweep import SUMMARY_KEYS

ROOT = Path(__file__).resolve().parents[1]

SIZING = dict(num_osds=8, epochs=24, requests_per_epoch=512, chunks_per_osd=8)
# Every scenario layer at once, with a scale-out so the cold-drive keys exist.
FIVE_LAYERS = dict(
    faults="slow:2@4x0.5;fail:1@8",
    endurance="pe:900",
    service="rate:80;queue:32",
    topology="add:2@8/cap:2,rate:160;drain:3@16",
    redundancy="rep:3",
)


def metrics_reference() -> str:
    """The README's metrics reference table, rendered from the catalogue."""
    lines = [
        "| key | OpenMetrics family | report column | help |",
        "|---|---|---|---|",
    ]
    for m in METRICS:
        family = f"`edm_{m.family}` {m.type}" if m.type else "-"
        lines.append(f"| `{m.key}` | {family} | {m.column or '-'} | {m.help} |")
    return "\n".join(lines)


def test_rows_are_well_formed():
    assert len(KEYS) == len(METRICS), "a key has two rows"
    scenarios = set(SCENARIOS)
    for m in METRICS:
        assert m.help.endswith("."), m.key
        assert m.type in (None, "gauge", "counter", "info"), m.key
        assert (m.type == "info") == (m.family == "run"), m.key
        assert m.scenario is None or m.scenario in scenarios, m.key
        assert bool(m.column) == bool(m.fmt), m.key
        assert m.column or m.scenario is None, m.key
    # Every scenario spec is itself a catalogued (unexported) key.
    assert scenarios <= KEYS
    # One row per gauge or counter family: openmetrics_text writes one TYPE
    # line per row (the info rows are the labels of the one edm_run sample).
    families = [m.family for m in METRICS if m.type in ("gauge", "counter")]
    assert len(set(families)) == len(families), "two rows export one family"


def test_every_row_is_produced_and_every_key_has_a_row():
    plain = simulate(cfg_factory(**SIZING))
    layered = simulate(cfg_factory(**SIZING, **FIVE_LAYERS))
    assert set(plain) | set(layered) == KEYS


def test_uncatalogued_key_fails_the_run(monkeypatch):
    block = RedundancyRuntime.metrics_block
    monkeypatch.setattr(
        RedundancyRuntime, "metrics_block", lambda self: {**block(self), "rebuild_secs": 1.0},
    )
    with pytest.raises(RuntimeError, match="rebuild_secs"):
        simulate(cfg_factory(**SIZING, redundancy="rep:2"))


def test_readme_metrics_reference_is_the_catalogue():
    table = metrics_reference()
    readme = (ROOT / "README.md").read_text()
    assert table in readme, "README's metrics reference is stale; it should read:\n" + table


def test_keys_read_by_benchmark_and_sweep_are_catalogued(monkeypatch):
    # The benchmark sums these keys with .get(k, 0) or `if k in m`: a rename
    # would zero its counters without an error.
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    layers = importlib.import_module("layers")
    run = importlib.import_module("run")
    read = {
        "layers.OUTPUT_COUNTS": {k for keys in layers.OUTPUT_COUNTS.values() for k in keys},
        "layers.REPLACED_KEYS": set(layers.REPLACED_KEYS),
        "run.CHECKED_KEYS": set(run.CHECKED_KEYS),
        "run.SHOWN_KEYS": set(run.SHOWN_KEYS),
        "sweep.SUMMARY_KEYS": set(SUMMARY_KEYS),
    }
    for where, keys in read.items():
        assert keys, where
        assert keys <= KEYS, f"{where} reads uncatalogued keys {sorted(keys - KEYS)}"
