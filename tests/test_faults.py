"""Fault injection: plan parsing, runtime semantics, degraded-mode engine
behavior, healthy-path bit-identity, and CLI/run-log integration."""

import json

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.cli import main as cli_main
from edm.config import rng_seed_sequence
from edm.engine import core
from edm.engine.core import replace_dead_chunks, simulate
from edm.engine.state import init_state
from edm.faults import FaultEvent, FaultPlan, Timeline, effective_load
from edm.obs import read_run_log
from edm.policies import get_policy
from edm.spec import SpecError
from edm.telemetry import Recorder, TimeSeriesRecorder


def cfg_with(faults="", policy="cmt", **kw):
    return cfg_factory(faults=faults, policy=policy, num_osds=8, seed=7, **kw)


# --- plan parsing / validation ----------------------------------------------


def test_parse_round_trips_canonical_spec():
    plan = FaultPlan.parse("hiccup:3@12+4x0.25 ; slow:2@4x0.50;fail:1@8", num_osds=8)
    assert plan.spec == "slow:2@4x0.5;fail:1@8;hiccup:3@12+4x0.25"
    assert FaultPlan.parse(plan.spec, num_osds=8) == plan
    assert [ev for ev in plan.events if ev.kind == "fail"] == [
        FaultEvent(kind="fail", osd=1, epoch=8)
    ]


def test_empty_and_none_mean_healthy():
    for spec in ("", "   ", "none"):
        plan = FaultPlan.parse(spec)
        assert not plan
        assert plan.spec == ""


@pytest.mark.parametrize(
    "spec,message",
    [
        ("fail:1@2;fail:1@9", "more than once"),
        ("slow:0@4x0", "factor must be > 0"),
        ("hiccup:0@4+0x0.5", "duration must be >= 1"),
        ("fail:1@2;garbage", "bad fault event"),
        ("fail:1@2,fail:2@3", "bad fault event"),  # commas never join events
    ],
)
def test_invalid_specs_rejected(spec, message):
    with pytest.raises(ValueError, match=message):
        FaultPlan.parse(spec, num_osds=8)


def test_killing_every_osd_rejected(make_cfg):
    # The grammar counts no survivors; the config-time dry run of the
    # departure timeline refuses the last failure.
    spec = ";".join(f"fail:{i}@{i + 1}" for i in range(4))
    assert [ev.kind for ev in FaultPlan.parse(spec, num_osds=4).events] == ["fail"] * 4
    with pytest.raises(SpecError, match=r"leave 1 alive at epoch 4, so 'fail:3@4' "
                       r"would cross the survivor floor of 1$"):
        make_cfg(num_osds=4, faults=spec)
    # The same plan is fine on a bigger cluster.
    assert make_cfg(num_osds=8, faults=spec).faults == spec


def test_failures_after_growth_keep_a_survivor(make_cfg):
    # Both initial OSDs fail, but an OSD added at epoch 1 survives them.
    cfg = make_cfg(num_osds=2, faults="fail:0@5;fail:1@6", topology="add:1@1", epochs=16)
    metrics = simulate(cfg)
    assert metrics["osds_alive_final"] == 1


# --- runtime capacity semantics ---------------------------------------------


def test_effective_load_scales_and_masks():
    load = np.array([10.0, 10.0, 10.0])
    cap = np.array([1.0, 0.5, 0.0])
    alive = np.array([True, True, False])
    eff = effective_load(load, cap, alive)
    assert eff[0] == 10.0
    assert eff[1] == 20.0  # half-capacity disk is twice as loaded
    assert eff[2] == np.inf  # dead disk can never look underloaded


def test_slow_events_compound_and_hiccup_restores(make_cfg):
    cfg = make_cfg(faults="slow:0@1x0.5;slow:0@3x0.5;hiccup:1@2+2x0.25")
    rt = Timeline(cfg.plans["timeline"])
    state = make_state(cfg)
    for epoch in range(6):
        rt.step(state, epoch, "faults")
        if epoch == 2:
            assert state.osd_capacity[0] == 0.5
            assert state.osd_capacity[1] == 0.25  # hiccup window open
        if epoch == 4:
            assert state.osd_capacity[0] == 0.25  # two slows compound
            assert state.osd_capacity[1] == 1.0  # window closed, restored
    assert state.osd_alive.all()


def test_fail_pins_alive_and_capacity(make_cfg):
    cfg = make_cfg(faults="fail:2@5")
    rt = Timeline(cfg.plans["timeline"])
    state = make_state(cfg)
    fired = []
    for epoch in range(8):
        fired += rt.step(state, epoch, "faults")
    assert [ev.render() for ev in fired] == ["fail:2@5"]
    assert not state.osd_alive[2]
    assert state.osd_capacity[2] == 0.0


# --- failure re-placement ----------------------------------------------------


@pytest.mark.parametrize("policy_name", ["baseline", "cdf", "hdf", "cmt"])
def test_replace_dead_chunks_evacuates_via_policy(make_cfg, policy_name):
    cfg = make_cfg(policy=policy_name)
    state = init_state(cfg)
    state.osd_alive[1] = False
    state.osd_capacity[1] = 0.0
    evacuated = int((state.chunk_owner == 1).sum())
    moved = replace_dead_chunks(state, 1, get_policy(policy_name), cfg)
    assert moved == evacuated == cfg.chunks_per_osd
    assert not (state.chunk_owner == 1).any()
    state.validate()  # dead-OSD-owns-no-chunks invariant holds
    # Re-placement is real migration traffic: wear charged on survivors only.
    per_move = cfg.migration_write_cost * cfg.wear_per_write
    assert state.osd_wear.sum() == pytest.approx(moved * per_move)
    assert state.osd_wear[1] == 0.0


def test_replace_dead_chunks_requires_survivors(small_cfg):
    state = init_state(small_cfg)
    state.osd_alive[:] = False
    with pytest.raises(RuntimeError, match="no OSD survives"):
        replace_dead_chunks(state, 0, get_policy("cmt"), small_cfg)


# --- engine integration ------------------------------------------------------


def test_faulted_run_is_deterministic():
    cfg = cfg_with(faults="fail:1@8;slow:2@4x0.5;hiccup:3@12+4x0.25")
    assert simulate(cfg) == simulate(cfg)


def test_fault_free_config_has_no_fault_keys():
    metrics = simulate(cfg_with())
    assert not any(k.startswith("fault") or "replac" in k for k in metrics)
    assert "osds_alive_final" not in metrics


def test_faults_excluded_from_seed_material():
    """Faulted runs replay the exact same traffic as their healthy twin."""
    healthy = cfg_with()
    faulted = cfg_with(faults="fail:1@8")
    assert rng_seed_sequence(healthy).entropy == rng_seed_sequence(faulted).entropy
    m_h, m_f = simulate(healthy), simulate(faulted)
    assert m_f["total_requests"] == m_h["total_requests"]


def test_failure_metrics_and_recovery(small_cfg):
    cfg = cfg_with(faults="fail:1@8")
    metrics = simulate(cfg)
    assert metrics["faults"] == "fail:1@8"
    assert metrics["fault_failures"] == 1
    assert metrics["osds_alive_final"] == cfg.num_osds - 1
    # The dead OSD evacuates whatever it held (pre-failure migrations may
    # have moved chunks on or off it) in a single burst.
    assert metrics["replacement_moves_total"] > 0
    assert metrics["replacement_burst_max"] == metrics["replacement_moves_total"]
    assert metrics["fault_recovery_epochs"] >= -1
    assert np.isfinite(metrics["load_cov_alive_mean"])
    assert np.isfinite(metrics["wear_cov_alive"])


class SurvivorCovOracle(Recorder):
    """The survivor CoV and recovery clock, reduced epoch by epoch with
    numpy's own ``mean``/``std`` on each block row's alive set."""

    def on_run_start(self, cfg, state):
        self.covs, self.alive_covs = [], []
        self.start, self.recovery, self.baseline = None, -1, 0.0

    def on_event(self, state, event, moved):
        if event.kind == "fail":
            self.baseline = sum(self.covs) / max(len(self.covs), 1)
            self.start, self.recovery = state.epoch, -1

    def on_block(self, state, block):
        for epoch, load in zip(block.epochs, block.load):
            if load.mean() > 0:
                self.covs.append(load.std() / load.mean())
            live = load[block.alive]
            cov = float(live.std() / live.mean()) if live.size and live.mean() > 0 else 0.0
            self.alive_covs.append(cov)
            threshold = max(self.baseline * 1.1, self.baseline + 1e-9)
            if self.start is not None and self.recovery < 0 and cov <= threshold:
                self.recovery = epoch - self.start


@pytest.mark.parametrize("block", [1, 5, 4096])
@pytest.mark.parametrize("topology", ["", "drain:4@60;add:2@95"])
def test_survivor_cov_blocks_match_per_epoch_oracle(block, topology, monkeypatch):
    """Load rows reduced a block at a time -- of one epoch, of five, or cut
    only by fault and topology events and migration rounds (4096 outlasts
    the run) -- give the per-epoch survivor CoV and recovery clock."""
    monkeypatch.setattr(core, "EPOCH_BLOCK", block)
    oracle = SurvivorCovOracle()
    cfg = cfg_factory(workload="deasna2", num_osds=12, epochs=128, requests_per_epoch=2048,
                      seed=0, faults="fail:2@90;fail:5@100", topology=topology)
    m = simulate(cfg, recorders=(oracle,))
    assert m["fault_recovery_epochs"] == oracle.recovery > 0
    assert m["load_cov_alive_mean"] == sum(oracle.alive_covs) / cfg.epochs
    assert m["load_cov_mean"] == sum(oracle.covs) / cfg.epochs


def test_dead_osd_serves_no_load_after_failure():
    rec = TimeSeriesRecorder(record_every=1)
    cfg = cfg_with(faults="fail:1@8")
    simulate(cfg, recorders=(rec,))
    s = rec.series
    post = s.epoch >= 8
    assert (s.load[post, 1] == 0).all()
    assert (s.alive[post] == cfg.num_osds - 1).all()
    assert (s.alive[~post] == cfg.num_osds).all()
    # The whole replacement burst lands on the failure epoch's row.
    assert s.replacements.sum() > 0
    assert s.replacements[s.epoch == 8].sum() == s.replacements.sum()


def test_on_event_hook_fires_in_schedule_order():
    seen = []

    class Spy(Recorder):
        def on_event(self, state, event, moved):
            seen.append((state.epoch, event.render(), moved))

    cfg = cfg_with(faults="slow:2@4x0.5;fail:1@8")
    simulate(cfg, recorders=(Spy(),))
    assert [(e, r) for e, r, _ in seen] == [(4, "slow:2@4x0.5"), (8, "fail:1@8")]
    assert seen[0][2] == 0  # slow events re-place nothing
    assert seen[1][2] > 0  # the failure evacuated the dead OSD's chunks


def test_policies_never_target_dead_osds():
    """No post-failure migration may land a chunk on the dead OSD."""

    class DstSpy(Recorder):
        def __init__(self):
            self.rounds = []

        def on_move(self, state, chunks, src, dst, trigger):
            if trigger == "threshold":
                self.rounds.append((state.epoch, dst.copy()))

    for policy in ("cdf", "hdf", "cmt"):
        spy = DstSpy()
        simulate(cfg_with(faults="fail:1@4", policy=policy), recorders=(spy,))
        post = [dst for epoch, dst in spy.rounds if epoch >= 4]
        assert post, policy
        for dst in post:
            assert not (dst == 1).any(), policy


def test_slow_disk_sheds_load():
    """A half-capacity OSD should end up with less raw load than its peers."""
    cfg = cfg_with(faults="slow:2@4x0.4", policy="cmt", epochs=64)
    rec = TimeSeriesRecorder(record_every=1)
    simulate(cfg, recorders=(rec,))
    tail = rec.series.load[-16:]
    others = [i for i in range(cfg.num_osds) if i != 2]
    assert tail[:, 2].mean() < tail[:, others].mean()


# --- CLI + run log -----------------------------------------------------------


def test_cli_run_with_faults(capsys):
    rc = cli_main(
        ["run", "--workload", "deasna", "--osds", "8", "--policy", "cmt",
         "--seed", "7", "--epochs", "16", "--requests", "256",
         "--faults", "fail:1@4"]
    )
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["fault_failures"] == 1
    assert metrics["osds_alive_final"] == 7


def test_cli_sweep_fault_axis_and_run_log(tmp_path, capsys):
    log_path = tmp_path / "runs.jsonl"
    rc = cli_main(
        ["sweep", "--workloads", "deasna", "--osds", "8",
         "--policies", "baseline,cmt", "--seeds", "7",
         "--faults", "none,fail:1@8;slow:2@4x0.5", "--quick",
         "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
         "--run-log", str(log_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# 4 configs: 4 simulated" in out
    records = read_run_log(log_path)  # strict: every record schema-validates
    faults = [r for r in records if r["event"] == "fault"]
    # 2 faulted configs x 2 events each, tagged with kind/osd/epoch/replaced.
    assert len(faults) == 4
    assert {r["kind"] for r in faults} == {"fail", "slow"}
    fail_recs = [r for r in faults if r["kind"] == "fail"]
    assert all(r["epoch"] == 8 and r["osd"] == 1 and r["replaced"] > 0 for r in fail_recs)


def test_sweep_cache_distinguishes_fault_scenarios(tmp_path, capsys):
    """Same base config, different fault spec -> different cache entries."""
    common = ["sweep", "--workloads", "deasna", "--osds", "8", "--policies", "cmt",
              "--seeds", "7", "--quick", "--workers", "1",
              "--cache-dir", str(tmp_path / "cache")]
    assert cli_main([*common, "--faults", "none"]) == 0
    assert "1 simulated" in capsys.readouterr().out
    assert cli_main([*common, "--faults", "fail:1@8"]) == 0
    assert "1 simulated" in capsys.readouterr().out
    # Re-running the faulted sweep is a pure cache hit.
    assert cli_main([*common, "--faults", "fail:1@8"]) == 0
    assert "1 cache hits" in capsys.readouterr().out
