"""Endurance model: spec parsing, lifetime tracking, CMT steering, wear-out
failures under the departure timeline's survivor floor, and config/CLI/cache integration."""

import json

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.cli import main as cli_main
from edm.config import SimConfig, config_hash, rng_seed_sequence
from edm.endurance import EnduranceModel, EnduranceTracker, wearout_risk
from edm.engine.core import simulate
from edm.faults import FaultEvent, Timeline
from edm.obs import read_run_log
from edm.policies import get_policy
from edm.policies.base import destination_picker
from edm.redundancy import RedundancyScheme
from edm.telemetry import TimeSeriesRecorder

# --- spec parsing / canonicalization -----------------------------------------


def test_parse_uniform_spec():
    model = EnduranceModel.parse("pe:5000", num_osds=4)
    assert model
    assert model.spec == "pe:5000"
    assert model.per_osd(4).tolist() == [5000.0] * 4


def test_parse_canonicalizes_band_order():
    model = EnduranceModel.parse("pe:10000@4-7,3000@0-3", num_osds=8)
    assert model.spec == "pe:3000@0-3,10000@4-7"
    assert EnduranceModel.parse(model.spec, num_osds=8) == model
    assert model.per_osd(8).tolist() == [3000.0] * 4 + [10000.0] * 4


def test_parse_default_band_sorts_first_and_single_osd_band_renders():
    model = EnduranceModel.parse("pe:300@2,5000", num_osds=4)
    assert model.spec == "pe:5000,300@2"
    assert model.per_osd(4).tolist() == [5000.0, 5000.0, 300.0, 5000.0]


def test_empty_and_none_mean_unrated():
    for spec in ("", "   ", "none"):
        model = EnduranceModel.parse(spec)
        assert not model
        assert model.spec == ""
    assert np.isinf(EnduranceModel.parse("").per_osd(4)).all()


@pytest.mark.parametrize(
    "spec,message",
    [
        ("5000", "bad endurance spec"),  # missing pe: prefix
        ("pe:", "no rating bands"),
        ("pe:abc", "bad endurance band"),
        ("pe:5000@1-2-3", "bad endurance band"),
        ("pe:0", "cycles must be > 0"),
        ("pe:5000,6000", "at most one default"),
        ("pe:5000@3-1", "range is inverted"),
        ("pe:3000@0-2,4000@2-3", "more than one band"),
    ],
)
def test_invalid_specs_rejected(spec, message):
    with pytest.raises(ValueError, match=message):
        EnduranceModel.parse(spec, num_osds=4)


def test_out_of_range_and_coverage_need_num_osds():
    with pytest.raises(ValueError, match="out of range"):
        EnduranceModel.parse("pe:5000@0-7", num_osds=4)
    with pytest.raises(ValueError, match="have no\\s+rating"):
        EnduranceModel.parse("pe:5000@0-1", num_osds=4)
    # A default band covers the gap; so does a full ranged cover.
    assert EnduranceModel.parse("pe:9000,5000@0-1", num_osds=4)
    assert EnduranceModel.parse("pe:5000@0-1,7000@2-3", num_osds=4)


# --- config integration -------------------------------------------------------


def test_config_canonicalizes_endurance_spec(make_cfg):
    cfg = make_cfg(num_osds=8, endurance="pe:10000@4-7,3000@0-3")
    assert cfg.endurance == "pe:3000@0-3,10000@4-7"
    respelled = make_cfg(num_osds=8, endurance="pe:3000@0-3,10000@4-7")
    assert config_hash(cfg) == config_hash(respelled)


def test_config_rejects_bad_endurance_knobs(make_cfg):
    with pytest.raises(ValueError, match="wear_rate_alpha"):
        make_cfg(wear_rate_alpha=0.0)
    with pytest.raises(ValueError, match="endurance_weight"):
        make_cfg(endurance_weight=-1.0)
    with pytest.raises(ValueError, match="out of range"):
        make_cfg(endurance="pe:5000@0-99")


def test_cache_name_endurance_suffix(make_cfg):
    plain = make_cfg()
    rated = make_cfg(endurance="pe:5000")
    assert plain.cache_name() == "deasna-4osd-cmt-s0.02-r12345"
    assert rated.cache_name().startswith(plain.cache_name() + "-e")
    assert len(rated.cache_name()) == len(plain.cache_name()) + 10
    # Different models get different suffixes; faults suffix comes first.
    other = make_cfg(endurance="pe:9000")
    assert other.cache_name() != rated.cache_name()
    both = make_cfg(num_osds=8, faults="fail:1@8", endurance="pe:5000")
    stem = "deasna-8osd-cmt-s0.02-r12345"
    assert both.cache_name().startswith(stem + "-f")
    assert both.cache_name().count("-e") == 1


def test_endurance_excluded_from_seed_material(make_cfg):
    """Rated runs replay the exact same traffic as their unrated twin."""
    unrated = make_cfg(num_osds=8, seed=7)
    rated = make_cfg(num_osds=8, seed=7, endurance="pe:900",
                     wear_rate_alpha=0.5, endurance_weight=2.0)
    assert rng_seed_sequence(unrated).entropy == rng_seed_sequence(rated).entropy
    m_u, m_r = simulate(unrated), simulate(rated)
    assert m_r["total_requests"] == m_u["total_requests"]


# --- state lifetime math ------------------------------------------------------


def test_remaining_life_and_prediction(small_cfg):
    state = make_state(small_cfg, wear=[100.0, 500.0, 600.0, 0.0])
    state.osd_rated_life = np.array([500.0, 500.0, 500.0, np.inf])
    state.osd_wear_rate = np.array([50.0, 0.0, 50.0, 50.0])
    rem = state.remaining_life()
    assert rem.tolist() == [400.0, 0.0, 0.0, np.inf]  # clamped at zero
    pred = state.predicted_wearout_epochs()
    assert pred[0] == pytest.approx(8.0)
    assert np.isinf(pred[1])  # no measured write rate -> never
    assert pred[2] == 0.0
    assert np.isinf(pred[3])  # unrated -> never
    risk = wearout_risk(state)
    assert risk[0] == pytest.approx(1.0 / 9.0)
    assert risk[1] == 0.0
    assert risk[2] == 1.0
    assert (risk >= 0).all() and (risk <= 1).all()


def test_tracker_attach_and_rate_ewma(small_cfg):
    cfg = cfg_factory(endurance="pe:5000", wear_rate_alpha=0.5)
    state = make_state(cfg)
    tracker = EnduranceTracker(EnduranceModel.parse(cfg.endurance, 4), cfg)
    tracker.attach(state)
    assert state.osd_rated_life.tolist() == [5000.0] * 4
    state.osd_wear += np.array([10.0, 0.0, 20.0, 0.0])
    tracker.update_rate(state)
    assert state.osd_wear_rate.tolist() == [5.0, 0.0, 10.0, 0.0]
    state.osd_wear += 10.0
    tracker.update_rate(state)
    assert state.osd_wear_rate.tolist() == [7.5, 5.0, 10.0, 5.0]


def test_tracker_fails_worn_osds_in_id_order(small_cfg):
    cfg = cfg_factory(endurance="pe:1000,500@1,200@3")
    state = make_state(cfg, wear=[100.0, 600.0, 100.0, 300.0])
    tracker = EnduranceTracker(EnduranceModel.parse(cfg.endurance, 4), cfg)
    tracker.attach(state)
    events = tracker.step(state, epoch=9)
    assert [ev.render() for ev in events] == ["wearout:1@9", "wearout:3@9"]
    assert state.osd_alive.tolist() == [True, False, True, False]
    assert state.osd_capacity[1] == state.osd_capacity[3] == 0.0
    # Dead OSDs are never re-failed on later steps.
    assert tracker.step(state, epoch=10) == []


def test_last_survivor_guard_keeps_most_headroom(small_cfg):
    cfg = cfg_factory(endurance="pe:100")
    # Everyone past the rating at once: the least-overdrawn OSD (2) survives.
    state = make_state(cfg, wear=[250.0, 300.0, 120.0, 180.0])
    tracker = EnduranceTracker(EnduranceModel.parse(cfg.endurance, 4), cfg)
    tracker.attach(state)
    events = tracker.step(state, epoch=3)
    assert sorted(ev.osd for ev in events) == [0, 1, 3]
    assert state.osd_alive.tolist() == [False, False, True, False]


def test_survivor_floor_keeps_one_placement_group_alive():
    # rep:3 on 6 OSDs: wear-outs stop at 3 alive.  Five are worn; OSD 0 is
    # fresh, so two worn OSDs are spared -- the least overdrawn, and on the
    # 1.5 tie between OSDs 2 and 5 the lower id.
    cfg = cfg_factory(num_osds=6, endurance="pe:100", redundancy="rep:3")
    state = make_state(cfg, wear=[50.0, 300.0, 150.0, 200.0, 120.0, 150.0])
    state.group_width = 3
    tracker = EnduranceTracker(EnduranceModel.parse(cfg.endurance, 6), cfg)
    tracker.attach(state)
    events = tracker.step(state, epoch=3)
    assert [ev.osd for ev in events] == [1, 3, 5]
    assert state.osd_alive.tolist() == [True, False, True, False, True, False]
    # At the floor, nothing more wears out.
    state.osd_wear[:] = 1e6
    assert tracker.step(state, epoch=4) == []


@pytest.mark.parametrize("redundancy", ["rep:3", "ec:4+2"])
def test_wearouts_never_shrink_a_redundant_cluster_below_its_group(redundancy):
    # Wear-outs used to leave fewer alive OSDs than the group width, and the
    # next re-placement raised "no constraint-satisfying destination".
    cfg = SimConfig(
        num_osds=6, redundancy=redundancy, endurance="pe:300", epochs=64,
        requests_per_epoch=1024, chunks_per_osd=8,
    )
    metrics = simulate(cfg)
    width = RedundancyScheme.parse(redundancy).group_width
    assert metrics["osds_alive_final"] >= width
    assert metrics["osds_alive_final"] + metrics["wearouts_total"] == cfg.num_osds


@pytest.mark.parametrize(
    "kw",
    [
        # Wear-outs reach the ec:4+2 floor of 6 alive, then fail:1 fires.
        dict(num_osds=7, redundancy="ec:4+2", faults="fail:1@40"),
        # Wear-outs leave one survivor, then the plan fails it.
        dict(num_osds=4, faults="fail:1@60;fail:2@61"),
    ],
    ids=["ec-floor", "last-survivor"],
)
def test_scheduled_fail_below_survivor_floor_is_skipped(kw):
    # A scheduled fail used to cross the floor wear-outs stop at and crash
    # the next re-placement mid-run.
    cfg = SimConfig(
        endurance="pe:300", epochs=64, requests_per_epoch=1024, chunks_per_osd=8, **kw
    )
    metrics = simulate(cfg)
    width = RedundancyScheme.parse(cfg.redundancy).group_width if cfg.redundancy else 0
    assert metrics["osds_alive_final"] >= max(1, width)


def test_fault_runtime_skips_fail_at_survivor_floor():
    cfg = cfg_factory(num_osds=4, faults="fail:2@5;fail:3@5;slow:3@5x0.5")
    state = make_state(cfg)
    state.osd_alive[[0, 1]] = False
    state.osd_capacity[[0, 1]] = 0.0
    runtime = Timeline(cfg.plans["timeline"])
    fired = runtime.step(state, 5, "faults")
    # OSD 2 may fail (leaving one survivor); OSD 3 may not.
    assert [(ev.kind, ev.osd) for ev in fired] == [("fail", 2), ("slow", 3)]
    assert state.osd_alive.tolist() == [False, False, False, True]
    assert state.osd_capacity[3] == 0.5


def test_wearout_event_renders_like_fail():
    assert FaultEvent(kind="wearout", osd=2, epoch=5).render() == "wearout:2@5"


# --- CMT steering (acceptance: the wear-out term changes the destination) -----


def test_cmt_steers_away_from_near_death_osd():
    """Equal wear, OSD 0 slightly less loaded but about to die: the unrated
    score picks 0, the endurance-aware score picks the healthy OSD 1."""
    unrated = cfg_factory()
    rated = cfg_factory(endurance="pe:5000")
    policy = get_policy("cmt")
    candidates = np.array([0, 1])
    proj_load = np.array([10.0, 10.5, 12.0, 12.0])

    def fresh_state(cfg):
        state = make_state(cfg, wear=[500.0] * 4)
        state.osd_rated_life = np.array([600.0, 1e9, 1e9, 1e9])
        state.osd_wear_rate = np.full(4, 50.0)  # OSD 0 dies in ~2 epochs
        return state

    def pick(cfg):
        return destination_picker(policy, candidates, fresh_state(cfg), cfg)(proj_load)[0]

    assert pick(unrated) == 0
    assert pick(rated) == 1
    # endurance_weight=0 disables the term even on a rated config.
    assert pick(cfg_factory(endurance="pe:5000", endurance_weight=0.0)) == 0


# --- engine integration -------------------------------------------------------


def rated_cfg(**kw):
    return cfg_factory(num_osds=8, seed=7, **{"endurance": "pe:900", **kw})


def test_rated_run_is_deterministic():
    cfg = rated_cfg()
    assert simulate(cfg) == simulate(cfg)


def test_unrated_config_has_no_endurance_keys(small_cfg):
    metrics = simulate(small_cfg)
    assert not any("wearout" in k or "remaining_life" in k for k in metrics)
    assert "endurance" not in metrics


def test_wearout_fails_and_replaces_through_faults_runtime():
    """Acceptance: a rated OSD reaches its budget, fails at the epoch
    boundary, and its chunks are re-placed by the active policy."""
    cfg = rated_cfg()
    metrics = simulate(cfg)
    assert metrics["endurance"] == "pe:900"
    assert metrics["wearouts_total"] > 0
    assert 0 <= metrics["first_wearout_epoch"] < cfg.epochs
    assert metrics["wearout_replacements_total"] > 0
    assert 1 <= metrics["osds_alive_final"] < cfg.num_osds  # guard held
    assert metrics["osds_alive_final"] == cfg.num_osds - metrics["wearouts_total"]
    assert metrics["remaining_life_min"] >= 0.0
    assert metrics["remaining_life_mean"] >= metrics["remaining_life_min"]
    assert metrics["remaining_life_cov"] >= 0.0


def test_generous_rating_never_wears_out():
    metrics = simulate(rated_cfg(endurance="pe:1000000"))
    assert metrics["wearouts_total"] == 0
    assert metrics["first_wearout_epoch"] == -1
    assert metrics["osds_alive_final"] == 8
    # The prediction still extrapolates a (far-future) first wear-out.
    assert metrics["predicted_first_wearout_epoch"] > metrics["epochs"]


def test_timeseries_lifetime_columns(make_cfg):
    rec = TimeSeriesRecorder(record_every=1)
    cfg = rated_cfg()
    metrics = simulate(cfg, recorders=(rec,))
    s = rec.series
    assert s.meta["endurance"] == "pe:900"
    assert s.remaining_life_min.shape == s.remaining_life_mean.shape == (cfg.epochs,)
    assert np.isfinite(s.remaining_life_min).all()
    assert (s.remaining_life_mean >= s.remaining_life_min).all()
    assert s.remaining_life_min[-1] == pytest.approx(metrics["remaining_life_min"])
    assert s.remaining_life_mean[-1] == pytest.approx(metrics["remaining_life_mean"])
    # Alive column tracks the wear-out cascade.
    assert s.alive[-1] == metrics["osds_alive_final"]
    # Unrated runs record infinite lifetime.
    rec2 = TimeSeriesRecorder(record_every=8)
    simulate(make_cfg(), recorders=(rec2,))
    assert np.isinf(rec2.series.remaining_life_min).all()


# --- CLI + sweep + run log ----------------------------------------------------


def test_cli_run_with_endurance(capsys):
    rc = cli_main(
        ["run", "--workload", "deasna", "--osds", "8", "--policy", "cmt",
         "--seed", "7", "--epochs", "32", "--requests", "512",
         "--endurance", "pe:900"]
    )
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["endurance"] == "pe:900"
    assert metrics["wearouts_total"] > 0


def test_cli_sweep_endurance_axis_and_run_log(tmp_path, capsys):
    log_path = tmp_path / "runs.jsonl"
    rc = cli_main(
        ["sweep", "--workloads", "deasna", "--osds", "8",
         "--policies", "cmt", "--seeds", "7",
         "--endurance", "none;pe:900", "--quick",
         "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
         "--run-log", str(log_path)]
    )
    assert rc == 0
    assert "# 2 configs: 2 simulated" in capsys.readouterr().out
    records = read_run_log(log_path)  # strict: every record schema-validates
    wearouts = [r for r in records if r["event"] == "fault" and r["kind"] == "wearout"]
    assert wearouts
    assert all(r["replaced"] > 0 for r in wearouts)


def test_sweep_cache_distinguishes_endurance_scenarios(tmp_path, capsys):
    common = ["sweep", "--workloads", "deasna", "--osds", "8", "--policies", "cmt",
              "--seeds", "7", "--quick", "--workers", "1",
              "--cache-dir", str(tmp_path / "cache")]
    assert cli_main([*common, "--endurance", "none"]) == 0
    assert "1 simulated" in capsys.readouterr().out
    assert cli_main([*common, "--endurance", "pe:900"]) == 0
    assert "1 simulated" in capsys.readouterr().out
    # Re-running the rated sweep is a pure cache hit.
    assert cli_main([*common, "--endurance", "pe:900"]) == 0
    assert "1 cache hits" in capsys.readouterr().out
