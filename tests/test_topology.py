"""Topology plans: grammar round-trips, validation, cache naming, elastic
runtime behavior (scale-out growth, graceful drains), and the end-to-end
tension a scale-out creates (cold drives absorbing load)."""

import numpy as np
import pytest

from edm.config import config_hash
from edm.engine.core import simulate
from edm.engine.state import OSD_COLUMNS
from edm.faults import FaultPlan, Timeline, compile_timeline, leave
from edm.service import ServiceRuntime
from edm.spec import SpecError
from edm.telemetry import Recorder
from edm.topology import TopologyPlan

# ---------------------------------------------------------------------------
# Grammar


def test_empty_and_none_are_static():
    assert not TopologyPlan.parse("")
    assert not TopologyPlan.parse("none")
    assert TopologyPlan.parse("").spec == ""


def test_simple_add_round_trips():
    plan = TopologyPlan.parse("add:4@128")
    assert plan.spec == "add:4@128"
    (ev,) = plan.events
    assert (ev.kind, ev.count, ev.epoch) == ("add", 4, 128)
    assert ev.cap == 1.0 and ev.rate is None and ev.pe is None


def test_add_with_device_class_round_trips():
    plan = TopologyPlan.parse("add:4@128/cap:2,rate:1600,pe:10000")
    assert plan.spec == "add:4@128/cap:2,rate:1600,pe:10000"
    (ev,) = plan.events
    assert ev.cap == 2.0 and ev.rate == 1600.0 and ev.pe == 10000.0


def test_canonicalization_is_spelling_invariant():
    # Attribute order, event order, and whitespace all normalize away.
    a = TopologyPlan.parse("drain:0@96; add:2@32/rate:1600,cap:2")
    b = TopologyPlan.parse("add:2@32/cap:2,rate:1600;drain:0@96")
    assert a.spec == b.spec == "add:2@32/cap:2,rate:1600;drain:0@96"


def test_add_sorts_before_same_epoch_drain():
    plan = TopologyPlan.parse("drain:1@64;add:2@64")
    assert [ev.kind for ev in plan.events] == ["add", "drain"]


def test_default_cap_not_rendered():
    assert TopologyPlan.parse("add:2@8/cap:1").spec == "add:2@8"


def test_max_osds_counts_every_add():
    plan = TopologyPlan.parse("add:4@16;add:2@32;drain:0@48;drain:1@64")
    assert plan.max_osds(8) == 14  # drains keep their (dead) slots
    assert len(plan.adds) == 2
    assert [ev.kind for ev in plan.events] == ["add", "add", "drain", "drain"]


TOPOLOGY_PINS = [
    ("add:2@32/rate:1600,cap:2", "add:2@32/cap:2,rate:1600"),  # cap,rate,pe order
    ("add:2@8/cap:1", "add:2@8"),                              # default cap dropped
    ("add:4@8/pe:10000.0", "add:4@8/pe:10000"),                # fixed-point numbers
    ("drain:0@96;add:2@32", "add:2@32;drain:0@96"),            # events by epoch
]


@pytest.mark.parametrize("spelled,canonical", TOPOLOGY_PINS)
def test_topology_plan_canonical_pins(spelled, canonical):
    plan = TopologyPlan.parse(spelled, num_osds=8)
    assert plan.spec == canonical
    assert TopologyPlan.parse(plan.spec, num_osds=8).spec == canonical


_BAD_ATTR = "; expected 'cap:FACTOR', 'rate:RATE' or 'pe:CYCLES'"
BAD_SPECS = [
    ("add:0@16", "topology event 'add:0@16': count must be >= 1"),
    ("add:2@16/cap:0", "topology event 'add:2@16/cap:0': cap must be > 0"),
    ("add:2@16/cap:2,cap:3",
     "topology event 'add:2@16/cap:2,cap:3': attribute 'cap' given twice"),
    ("add:2@16/speed:9",
     "topology event 'add:2@16/speed:9': bad attribute 'speed:9'" + _BAD_ATTR),
    ("add:2@16/", "topology event 'add:2@16/': bad attribute ''" + _BAD_ATTR),
    ("drain:0@16;drain:0@32", "OSD 0 scheduled to drain more than once"),
    ("grow:2@16",
     "bad topology event 'grow:2@16'; expected 'add:COUNT@EPOCH', "
     "'add:COUNT@EPOCH/cap:F,rate:R,pe:C' or 'drain:OSD@EPOCH'"),
]


@pytest.mark.parametrize("spec,message", BAD_SPECS, ids=[spec for spec, _ in BAD_SPECS])
def test_bad_specs_rejected(spec, message):
    with pytest.raises(SpecError) as err:
        TopologyPlan.parse(spec)
    assert str(err.value) == message


def test_drain_of_nonexistent_osd_rejected():
    with pytest.raises(SpecError, match="does not exist"):
        TopologyPlan.parse("drain:7@16", num_osds=4)
    # ...but an id inside a band added *by* the drain's epoch is fine.
    TopologyPlan.parse("add:4@8;drain:7@16", num_osds=4)


def test_drain_below_two_survivors_rejected():
    with pytest.raises(SpecError, match="below 2"):
        TopologyPlan.parse("drain:0@8;drain:1@16", num_osds=3)


# ---------------------------------------------------------------------------
# Config integration: canonicalization, cache naming, hashing


def test_config_canonicalizes_topology(make_cfg):
    cfg = make_cfg(topology="drain:0@24; add:2@8/rate:1600,cap:2")
    assert cfg.topology == "add:2@8/cap:2,rate:1600;drain:0@24"


def test_config_rejects_invalid_topology(make_cfg):
    with pytest.raises(SpecError):
        make_cfg(topology="drain:99@8")


def test_cache_name_topology_suffix(make_cfg):
    static = make_cfg()
    elastic = make_cfg(topology="add:2@8")
    assert "-t" not in static.cache_name()
    assert elastic.cache_name().startswith(static.cache_name() + "-t")
    # Two spellings of one plan share a cache entry; different plans don't.
    respelled = make_cfg(topology=" add:2@8 ")
    assert respelled.cache_name() == elastic.cache_name()
    other = make_cfg(topology="add:3@8")
    assert other.cache_name() != elastic.cache_name()


def test_empty_topology_hashes_like_pre_topology_config(make_cfg):
    # config_hash drops an empty topology from the payload, so static
    # configs keep their pre-topology content hash (cache entries survive).
    assert config_hash(make_cfg()) == config_hash(make_cfg(topology=""))
    assert config_hash(make_cfg()) != config_hash(make_cfg(topology="add:2@8"))


# ---------------------------------------------------------------------------
# Runtime behavior


def _grown_state(cfg, plan):
    from conftest import make_state

    state = make_state(cfg, epoch=0)
    runtime = Timeline(compile_timeline(FaultPlan.parse(""), plan))
    return state, runtime


def _service(cfg, state):
    """The run's service recorder, started on ``state``."""
    service = ServiceRuntime(cfg.plans["service"], cfg)
    service.on_run_start(cfg, state)
    return service


def test_scale_out_grows_every_array(make_cfg):
    cfg = make_cfg(service="rate:800")
    plan = TopologyPlan.parse("add:3@5/cap:2,rate:1600,pe:9000", num_osds=cfg.num_osds)
    state, runtime = _grown_state(cfg, plan)
    service = _service(cfg, state)
    n0 = state.num_osds
    assert runtime.step(state, 4, "topology") == []
    fired = runtime.step(state, 5, "topology")
    assert len(fired) == 1 and fired[0].kind == "add"
    service.on_topology(state, fired[0], 0)
    assert state.num_osds == n0 + 3
    for name in OSD_COLUMNS:
        assert getattr(state, name).shape == (n0 + 3,), name
    for name in ("rate", "depth", "backlog"):
        assert getattr(service, name).shape == (n0 + 3,), name
    # New drives join cold, with the event's device class.
    assert (state.osd_wear[n0:] == 0).all()
    assert (state.osd_capacity[n0:] == 2.0).all()
    assert (service.rate[n0:] == 1600.0).all()
    assert (service.depth[n0:] == 0).all() and (service.backlog[n0:] == 0).all()
    assert (state.osd_rated_life[n0:] == 9000.0).all()
    assert state.osd_alive[n0:].all()
    state.validate()
    service.validate(state)


def test_add_defaults_inherit_cluster_defaults(make_cfg):
    cfg = make_cfg(service="rate:700")
    plan = TopologyPlan.parse("add:2@3", num_osds=cfg.num_osds)
    state, runtime = _grown_state(cfg, plan)
    service = _service(cfg, state)
    (ev,) = runtime.step(state, 3, "topology")
    service.on_topology(state, ev, 0)
    assert (state.osd_capacity[-2:] == 1.0).all()
    assert (service.rate[-2:] == 700.0).all()  # the service model's default band
    assert np.isinf(state.osd_rated_life[-2:]).all()


def test_add_without_a_default_rate_serves_instantly(make_cfg):
    cfg = make_cfg(num_osds=8, service="rate:400@0-3;rate:800@4-7")
    state, runtime = _grown_state(cfg, TopologyPlan.parse("add:2@3", num_osds=8))
    service = _service(cfg, state)
    (ev,) = runtime.step(state, 3, "topology")
    service.on_topology(state, ev, 0)
    assert np.isinf(service.rate[-2:]).all()  # no default: backlog retires instantly


def test_drain_marks_then_retire_removes(make_cfg):
    cfg = make_cfg(service="rate:800")
    plan = TopologyPlan.parse("drain:1@7", num_osds=cfg.num_osds)
    state, runtime = _grown_state(cfg, plan)
    service = _service(cfg, state)
    service.depth[1] = 5.0
    service.backlog[1] = 2.0
    (ev,) = runtime.step(state, 7, "topology")
    assert ev.kind == "drain" and ev.osd == 1
    assert state.osd_draining[1] and state.osd_alive[1]  # still alive: graceful
    leave(state, 1)
    service.on_topology(state, ev, 0)
    assert not state.osd_alive[1]
    assert state.osd_capacity[1] == 0.0
    assert service.depth[1] == 0.0 and service.backlog[1] == 0.0
    service.step(state, np.zeros(state.num_osds))
    assert service.lost_work == 0.0  # no queue work counts as lost


# ---------------------------------------------------------------------------
# End-to-end engine runs


ELASTIC = dict(epochs=48, requests_per_epoch=2048, chunks_per_osd=16)


def test_scale_out_end_to_end(make_cfg):
    cfg = make_cfg(topology="add:4@16/cap:2,rate:1600", service="rate:800;queue:64",
                   num_osds=8, **ELASTIC)
    m = simulate(cfg)
    assert m["topology"] == cfg.topology
    assert m["osds_total_final"] == 12
    assert m["osds_added_total"] == 4
    assert m["osds_drained_total"] == 0
    assert len(m["per_osd_wear"]) == 12
    # The cold band ends with real load: the policy moved work onto it.
    assert m["cold_load_share_final"] > 0.0
    assert m["cold_wear_max"] > 0.0


def test_drain_end_to_end(make_cfg):
    cfg = make_cfg(topology="add:2@8;drain:0@24", num_osds=8, **ELASTIC)
    m = simulate(cfg)
    assert m["osds_total_final"] == 10
    assert m["osds_alive_final"] == 9
    assert m["osds_drained_total"] == 1
    assert m["drain_moves_total"] > 0  # evacuation actually moved chunks
    # The drained OSD's wear froze once it retired; survivors kept wearing.
    assert m["per_osd_wear"][0] < max(m["per_osd_wear"])


class TopologyEvents(Recorder):
    def __init__(self):
        self.events = []

    def on_topology(self, state, event, moved):
        self.events.append(event)


# Drains that would leave fewer than ``survivor_floor`` alive OSDs once
# wear-outs shrank the cluster; each used to crash the run.  Wear-outs are
# the one departure the config-time dry run cannot foresee.
DRAIN_FLOOR_REPROS = {
    "ec-after-wearout": dict(
        num_osds=7, redundancy="ec:4+2",
        endurance="pe:200@1,100000@0,100000@2-6", topology="drain:0@12",
    ),
    "last-after-wearouts": dict(
        num_osds=3, endurance="pe:200@0-1,100000@2", topology="drain:2@12",
    ),
}


@pytest.mark.parametrize("name", sorted(DRAIN_FLOOR_REPROS))
def test_drain_at_survivor_floor_completes_without_draining(make_cfg, name):
    cfg = make_cfg(chunks_per_osd=6, epochs=24, requests_per_epoch=512,
                   **DRAIN_FLOOR_REPROS[name])
    seen = TopologyEvents()
    m = simulate(cfg, recorders=(seen,))
    assert m["osds_drained_total"] == 0
    assert m["drain_moves_total"] == 0
    assert seen.events == []  # a skipped drain never fires


# Plans whose own departures reach the survivor floor before a drain: the
# config-time dry run of the departure timeline, which walks the alive set
# in firing order, rejects them.
FLOOR_REJECTED = {
    # Two failures bring a plain cluster to its last OSD.
    "last-after-failures": (
        dict(num_osds=3, faults="fail:0@4;fail:1@6", topology="drain:2@8"),
        "fault plan 'fail:0@4;fail:1@6' and topology plan 'drain:2@8' leave 1 "
        "alive at epoch 8, so 'drain:2@8' would cross the survivor floor of 1",
    ),
    # The add comes too late to keep the drain above the floor.
    "drain-before-add": (
        dict(num_osds=6, redundancy="ec:4+2", topology="drain:0@5;add:2@11"),
        "fault plan '' and topology plan 'drain:0@5;add:2@11' leave 6 alive at "
        "epoch 5, so 'drain:0@5' would cross the survivor floor of 6 that "
        "redundancy scheme 'ec:4+2' needs",
    ),
}


@pytest.mark.parametrize("name", sorted(FLOOR_REJECTED))
def test_drain_at_survivor_floor_is_rejected_at_config_time(make_cfg, name):
    kw, message = FLOOR_REJECTED[name]
    with pytest.raises(SpecError) as err:
        make_cfg(chunks_per_osd=6, epochs=24, requests_per_epoch=512, **kw)
    assert str(err.value) == message


def test_fail_made_feasible_by_an_earlier_add_is_accepted(make_cfg):
    # The earlier add keeps the failure above the ec:4+2 floor.
    cfg = make_cfg(num_osds=6, redundancy="ec:4+2", faults="fail:1@10",
                   topology="add:1@5", chunks_per_osd=6, epochs=24,
                   requests_per_epoch=512)
    m = simulate(cfg)
    assert m["osds_added_total"] == 1
    assert m["fault_failures"] == 1
    assert m["replacement_moves_total"] > 0
    assert m["osds_alive_final"] == 6


# A departure event for an OSD that has already left still fires.  Skipping
# it changes these configs' metrics, so the fix lands with the next re-pin.
DEPARTED = dict(num_osds=8, epochs=96)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2 re-pin")
def test_fail_of_drained_osd_does_not_fire(make_cfg):
    m = simulate(make_cfg(faults="fail:3@80", topology="drain:3@20", **DEPARTED))
    assert m["fault_failures"] == 0
    assert m["fault_recovery_epochs"] == -1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2 re-pin")
def test_drain_of_failed_osd_does_not_fire(make_cfg):
    m = simulate(make_cfg(faults="fail:3@20", topology="drain:3@60", **DEPARTED))
    assert m["osds_drained_total"] == 0


def test_elastic_run_is_deterministic(make_cfg):
    cfg = make_cfg(topology="add:2@8/cap:2;drain:1@24", num_osds=8, **ELASTIC)
    assert simulate(cfg) == simulate(cfg)


def test_static_config_unchanged_by_topology_field(make_cfg):
    """topology='' must be bit-identical to a config that predates the field."""
    assert simulate(make_cfg()) == simulate(make_cfg(topology=""))
