"""Redundancy layer unit tests: scheme arithmetic, config integration,
group layout, reconstruction charging, and report wiring.

End-to-end redundancy behavior (spread invariant under disruptions, wear
identity, golden digests) lives in test_invariants_property.py /
test_golden_metrics.py; this module pins the pieces in isolation.
"""

import copy
import re

import numpy as np
import pytest

from conftest import cfg_factory
from edm import report as report_mod
from edm.config import SEED_FIELDS, SimConfig, config_hash
from edm.engine.core import simulate
from edm.engine.state import init_state
from edm.redundancy import RedundancyRuntime, RedundancyScheme
from edm.service import ServiceRuntime
from edm.spec import SpecError
from edm.telemetry import Recorder
from replacement_reference import (
    group_members,
    move_charge_reference,
    reconstruction_reference,
)

# --- scheme arithmetic -------------------------------------------------------


@pytest.mark.parametrize("spec,width,reads,tolerated", [
    ("rep:2", 2, 1, 1),
    ("rep:3", 3, 1, 2),
    ("ec:4+2", 6, 4, 2),
    ("ec:2+1", 3, 2, 1),
    ("", 0, 0, 0),
])
def test_scheme_arithmetic(spec, width, reads, tolerated):
    scheme = RedundancyScheme.parse(spec, num_osds=16)
    assert scheme.group_width == width
    assert scheme.reads_per_loss == reads
    assert scheme.tolerated_losses == tolerated
    assert bool(scheme) == bool(spec)


# --- config integration ------------------------------------------------------


def test_config_canonicalizes_and_suffixes_cache_name():
    plain = cfg_factory()
    cfg = cfg_factory(redundancy="rep:03")
    assert cfg.redundancy == "rep:3"  # canonical form stored on the config
    # -g + 8 hex chars of sha256(canonical spec), after every other suffix.
    assert cfg.cache_name().startswith(plain.cache_name() + "-g")
    assert len(cfg.cache_name()) == len(plain.cache_name()) + 10
    assert cfg.cache_name() == cfg_factory(redundancy="rep:3").cache_name()
    assert cfg.cache_name() != cfg_factory(redundancy="ec:2+1").cache_name()


def test_empty_redundancy_leaves_hash_and_name_untouched():
    # Forward-compatibility contract: a redundancy-free config hashes (and
    # cache-keys) exactly as it did before the field existed, so no cached
    # result or pinned golden went stale when the field was added.
    plain = cfg_factory()
    assert "redundancy" not in plain.to_dict() or not plain.to_dict()["redundancy"]
    assert config_hash(plain) == config_hash(cfg_factory(redundancy=""))
    assert "-g" not in plain.cache_name()


def test_redundancy_is_seed_excluded():
    # Same derived RNG streams with and without a scheme: the workload replay
    # is identical, only placement and accounting differ.
    assert "redundancy" not in SEED_FIELDS


def test_config_rejects_width_wider_than_cluster():
    with pytest.raises(SpecError, match="needs 6 distinct OSDs per group"):
        cfg_factory(num_osds=4, redundancy="ec:4+2")


def departure_error(faults, topology, alive, epoch, event, floor, scheme):
    """The dry run's one rejection shape, as a regex."""
    return re.escape(
        f"fault plan {faults!r} and topology plan {topology!r} leave {alive} "
        f"alive at epoch {epoch}, so {event!r} would cross the survivor floor of "
        f"{floor} that redundancy scheme {scheme!r} needs"
    )


def test_config_rejects_fault_plan_that_breaks_feasibility():
    with pytest.raises(SpecError, match=departure_error(
        "fail:1@8", "", 4, 8, "fail:1@8", 4, "ec:2+2"
    )):
        cfg_factory(num_osds=4, redundancy="ec:2+2", faults="fail:1@8")


def test_config_rejects_topology_plan_that_drains_too_deep():
    with pytest.raises(SpecError, match=departure_error(
        "", "drain:0@8", 4, 8, "drain:0@8", 4, "rep:4"
    )):
        cfg_factory(num_osds=4, redundancy="rep:4", topology="drain:0@8")


def test_config_rejects_fault_and_drain_plans_that_break_redundancy_together():
    # Each plan alone leaves 6 of 8 OSDs (ec:4+2 needs 6); together only 5.
    # This used to pass validation and die mid-run in re-placement.
    with pytest.raises(SpecError, match=departure_error(
        "fail:1@4;fail:2@6", "drain:3@10", 6, 10, "drain:3@10", 6, "ec:4+2"
    )):
        SimConfig(
            workload="deasna", num_osds=8, policy="cmt", epochs=16,
            requests_per_epoch=512, redundancy="ec:4+2",
            faults="fail:1@4;fail:2@6", topology="drain:3@10",
        )


def test_config_counts_added_and_doubly_removed_osds_once():
    # A drive that fails and is also drained leaves the cluster once, and
    # scale-out adds to the survivors: both of these stay feasible.
    cfg_factory(num_osds=8, redundancy="ec:4+2", faults="fail:1@4;fail:2@6",
                topology="drain:1@10")
    cfg_factory(num_osds=8, redundancy="ec:4+2", faults="fail:1@4;fail:2@6",
                topology="add:1@2;drain:3@10")


# --- group layout ------------------------------------------------------------


def test_init_state_lays_out_round_robin_groups():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")
    state = init_state(cfg)
    assert state.group_width == 6
    # Consecutive-id windows of `width` chunks share a group...
    assert np.array_equal(state.chunk_group, np.arange(cfg.num_chunks) // 6)
    # ...and the round-robin owners give every full group distinct OSDs.
    assert np.array_equal(
        state.chunk_owner, (np.arange(cfg.num_chunks) % 8).astype(np.int32)
    )
    state.validate()  # group-uniqueness holds at epoch 0


def test_group_members_window_and_trailing_partial():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")  # 64 chunks, width 6
    state = init_state(cfg)
    assert group_members(state, 7).tolist() == [6, 7, 8, 9, 10, 11]
    # 64 = 10 full groups of 6 + a trailing partial group of 4.
    assert group_members(state, 63).tolist() == [60, 61, 62, 63]


def test_plain_config_has_no_grouping():
    state = init_state(cfg_factory())
    assert state.chunk_group is None
    assert state.group_width == 0


# --- reconstruction charging -------------------------------------------------


def _rebuild(cfg, state, lost, service=None):
    """A dead OSD's ``lost`` chunks moved onto survivors, through the move
    hook of a fresh redundancy recorder (and of ``service``, if given)."""
    rt = RedundancyRuntime(RedundancyScheme.parse(cfg.redundancy), cfg)
    alive = np.flatnonzero(state.osd_alive)
    dst = alive[np.arange(lost.size) % alive.size]
    for rec in (rt, service):
        if rec is not None:
            rec.on_move(state, lost, state.chunk_owner[lost], dst, "fault")
    return rt, dst


def test_reconstruction_counts_reads_and_charges_queues():
    cfg = cfg_factory(num_osds=8, redundancy="ec:2+1", service="rate:100")
    state = init_state(cfg)
    service = ServiceRuntime(cfg.plans["service"], cfg)
    service.on_run_start(cfg, state)
    # Kill OSD 1: it owns chunks 1, 9, 17, ... (round-robin layout).
    state.osd_alive[1] = False
    lost = np.flatnonzero(state.chunk_owner == 1)[:2]
    rt, dst = _rebuild(cfg, state, lost, service)
    # ec:2+1 reads 2 survivors per lost chunk.
    assert rt.reconstruction_chunks == 2
    assert rt.reconstruction_reads == 4
    assert rt.data_loss_chunks == 0
    # The reads landed in the surviving sources' queues, not the dead OSD's,
    # on top of the rebuild writes at the destinations.
    assert service.backlog[1] == 0
    reads = service.backlog - np.bincount(dst, minlength=8) * cfg.service_migration_cost
    assert reads.sum() == pytest.approx(4 * cfg.service_migration_cost)


def test_reconstruction_without_service_model_charges_no_queues():
    cfg = cfg_factory(num_osds=8, redundancy="rep:3")
    state = init_state(cfg)
    state.osd_alive[0] = False
    rt, _ = _rebuild(cfg, state, np.flatnonzero(state.chunk_owner == 0)[:3])
    assert rt.reconstruction_reads == 3  # rep reads one survivor per loss
    # Without a service model a run has no queues to charge.
    services = []

    class Services(Recorder):
        def on_service(self, service):
            services.append(service)

    metrics = simulate(cfg_factory(num_osds=8, redundancy="rep:3", faults="fail:0@8"),
                       recorders=(Services(),))
    assert metrics["reconstruction_reads_total"] > 0 and services == []


def test_too_few_survivors_counts_data_loss():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")
    state = init_state(cfg)
    # Chunk 0's group is chunks 0-5 on OSDs 0-5; kill 0 and three peers so
    # only 2 of the 4 needed read sources survive.
    state.osd_alive[[0, 1, 2, 3]] = False
    rt, _ = _rebuild(cfg, state, np.array([0]))
    assert rt.data_loss_chunks == 1
    assert rt.reconstruction_reads == 2  # charges whatever reads remain


def _killed_state(spec, dead, num_osds=8, service="rate:100"):
    cfg = cfg_factory(num_osds=num_osds, redundancy=spec, service=service)
    state = init_state(cfg)
    service = ServiceRuntime(cfg.plans["service"], cfg)
    service.on_run_start(cfg, state)
    state.osd_alive[list(dead)] = False
    return cfg, state, service


def _reconstruct_both(cfg, state, service, lost):
    """Run the vectorized and the reference counting and charging."""
    scheme = RedundancyScheme.parse(cfg.redundancy)
    ref = RedundancyRuntime(scheme, cfg)
    alive = np.flatnonzero(state.osd_alive)
    expected = move_charge_reference(
        service.backlog, state, lost, alive[np.arange(lost.size) % alive.size],
        cfg.service_migration_cost, scheme.reads_per_loss,
    )
    fast, _ = _rebuild(cfg, state, lost, service)
    reconstruction_reference(ref, state, lost)
    for key in ("reconstruction_chunks", "reconstruction_reads", "data_loss_chunks"):
        assert getattr(fast, key) == getattr(ref, key), key
    assert service.backlog.tobytes() == expected.tobytes()
    return fast


@pytest.mark.parametrize("spec", ["rep:2", "rep:3", "ec:2+1", "ec:4+2"])
def test_vectorized_reconstruction_matches_per_chunk_reference(spec):
    # 64 chunks: a trailing partial group for every width but 2.  Several
    # dead OSDs at once put dead peers (and data loss) in many groups.
    rng = np.random.default_rng(11)
    for _ in range(20):
        dead = rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
        cfg, state, service = _killed_state(spec, dead)
        service.backlog[:] = rng.uniform(0.0, 3.0, state.num_osds)
        _reconstruct_both(cfg, state, service, np.flatnonzero(state.chunk_owner == dead[0]))


def test_vectorized_reconstruction_trailing_partial_group():
    # ec:4+2 over 64 chunks: chunks 60-63 form a 4-wide trailing group, so a
    # lost member has 3 peers and reads all 3 -- no layout-artifact loss.
    # Round-robin layout: chunk 62 lives on OSD 62 % 8 = 6.
    cfg, state, service = _killed_state("ec:4+2", dead=[6])
    rt = _reconstruct_both(cfg, state, service, np.array([62]))
    assert rt.reconstruction_reads == 3 and rt.data_loss_chunks == 0


def test_vectorized_reconstruction_two_failures_in_one_group():
    # rep:2 groups {0,1}, {2,3}, ... sit on OSDs (0,1), (2,3), ...: killing
    # OSDs 0 and 1 together leaves every lost chunk of OSD 0 with no live
    # peer -- all data loss, no reads, no read charge.
    cfg, state, service = _killed_state("rep:2", dead=[0, 1])
    lost = np.flatnonzero(state.chunk_owner == 0)
    rt = _reconstruct_both(cfg, state, service, lost)
    assert rt.data_loss_chunks == lost.size and rt.reconstruction_reads == 0


def test_same_epoch_failures_in_one_group_count_data_loss_end_to_end(monkeypatch):
    # Every batch of moves in a real run -- the two same-epoch failures'
    # rebuilds, which hit shared groups, and every migration round -- is
    # counted and charged as the references count and charge it.
    checked, charged = [], []
    real_count, real_charge = RedundancyRuntime.on_move, ServiceRuntime.on_move

    def count_checked(self, state, chunks, src, dst, trigger):
        ref = copy.copy(self)
        if trigger == "fault":
            reconstruction_reference(ref, state, chunks)
            checked.append(len(chunks))
        real_count(self, state, chunks, src, dst, trigger)
        assert vars(self) == vars(ref)

    def charge_checked(self, state, chunks, src, dst, trigger):
        reads = self._reads_per_loss if trigger == "fault" else 0
        expected = move_charge_reference(
            self.backlog, state, chunks, dst, self._cost, reads
        )
        real_charge(self, state, chunks, src, dst, trigger)
        assert self.backlog.tobytes() == expected.tobytes()
        charged.append(trigger)

    monkeypatch.setattr(RedundancyRuntime, "on_move", count_checked)
    monkeypatch.setattr(ServiceRuntime, "on_move", charge_checked)
    cfg = cfg_factory(num_osds=8, seed=7, redundancy="rep:2", service="rate:100",
                      faults="fail:0@4;fail:1@4")
    metrics = simulate(cfg)
    assert len(checked) == 2
    assert charged.count("fault") == 2 and "threshold" in charged
    assert metrics["data_loss_chunks_total"] > 0


def test_metrics_block_shape():
    cfg = cfg_factory(num_osds=8, redundancy="rep:3")
    block = RedundancyRuntime(RedundancyScheme.parse(cfg.redundancy), cfg).metrics_block()
    assert block["redundancy"] == "rep:3"
    assert block["redundancy_group_width"] == 3
    for key in (
        "reconstruction_chunks_total",
        "reconstruction_reads_total",
        "reconstruction_read_mb",
        "reconstruction_write_mb",
        "data_loss_chunks_total",
    ):
        assert block[key] == 0


# --- end-to-end metrics + report wiring --------------------------------------


def test_redundant_run_surfaces_reconstruction_metrics():
    cfg = cfg_factory(num_osds=8, seed=7, redundancy="ec:4+2", faults="fail:1@8")
    metrics = simulate(cfg)
    assert metrics["redundancy"] == "ec:4+2"
    assert metrics["reconstruction_chunks_total"] == metrics["replacement_moves_total"]
    assert metrics["reconstruction_read_mb"] == pytest.approx(
        metrics["reconstruction_reads_total"] * cfg.chunk_size_mb
    )
    assert metrics["data_loss_chunks_total"] == 0


def test_plain_run_has_no_reconstruction_keys():
    metrics = simulate(cfg_factory())
    assert not any(k.startswith("reconstruction") for k in metrics)
    assert "redundancy" not in metrics


def test_report_shows_redundancy_column_only_when_present():
    cfg = cfg_factory(num_osds=8, seed=7, redundancy="ec:4+2", faults="fail:1@8")
    redundant = simulate(cfg)
    plain = simulate(cfg_factory(policy="hdf"))
    cells = report_mod.aggregate([redundant, plain])
    table = report_mod.render_markdown(cells)
    assert "redundancy" in table and "recon reads" in table
    assert "| ec:4+2 |" in table
    assert "| plain |" in table  # the redundancy-free row's placeholder
    # A purely plain cache keeps its historical column set.
    plain_table = report_mod.render_markdown(report_mod.aggregate([plain]))
    assert "redundancy" not in plain_table and "recon reads" not in plain_table
