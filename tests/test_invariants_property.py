"""Property-style invariant suite: randomized-but-seeded configurations over
policy x workload x faults x endurance x service (plus one scale-out, one
drain, one replicated and one erasure-coded case), each run checked
epoch-by-epoch.

Invariants (must hold for every policy, healthy or degraded, rated or not,
serviced or not):

  * wear conservation -- total wear equals routed writes plus migration
    rewrites, to float precision
  * per-OSD wear is monotone non-decreasing, wear rates never negative
  * remaining rated lifetime is never negative (clamped at zero)
  * dead OSDs own no chunks and serve zero load; chunks are conserved
  * queue depths and pending migration work are finite and never negative;
    dead OSDs carry no backlog; unserviced runs never grow a queue
  * a dead OSD never comes back (only added drives raise the alive count),
    and state / metrics / TimeSeries agree on it at every recorded epoch
  * on redundant runs, no placement group ever has two chunks on one OSD

The sample is drawn from a fixed-seed RNG so failures reproduce exactly;
every policy appears in the sample by construction.
"""

import numpy as np
import pytest

from conftest import cfg_factory
from edm.config import POLICIES, WORKLOADS
from edm.engine.core import simulate
from edm.engine.state import OSD_COLUMNS
from edm.telemetry import Recorder, TimeSeriesRecorder

SIZING = dict(num_osds=8, epochs=24, requests_per_epoch=512, chunks_per_osd=8)

FAULT_SCENARIOS = ("", "fail:1@8", "slow:2@4x0.5;fail:1@8", "hiccup:3@6+4x0.25")
ENDURANCE_MODELS = ("", "pe:900", "pe:1200@0-1,100000@2-7")
SERVICE_MODELS = ("", "rate:100", "rate:80;queue:32", "rate:60;rate:200@4-7;queue:64")
ELASTIC_TOPOLOGIES = ("add:2@8/cap:2", "drain:3@12")
REDUNDANCY_SCHEMES = ("rep:3", "ec:4+2")


def sample_configs():
    """Seeded random draw; every policy covered, scenario axes shuffled.

    The first case per policy is pinned healthy + unrated so the baseline
    path always stays in the sample; the rest draw from the scenario axes.
    """
    rng = np.random.default_rng(20260806)
    cases = []
    for policy in POLICIES:
        for pinned in (True, False, False):
            cases.append(
                cfg_factory(
                    policy=policy,
                    workload=WORKLOADS[int(rng.integers(len(WORKLOADS)))],
                    faults="" if pinned else FAULT_SCENARIOS[int(rng.integers(len(FAULT_SCENARIOS)))],
                    endurance="" if pinned else ENDURANCE_MODELS[int(rng.integers(len(ENDURANCE_MODELS)))],
                    service="" if pinned else SERVICE_MODELS[int(rng.integers(len(SERVICE_MODELS)))],
                    seed=int(rng.integers(1, 10_000)),
                    **SIZING,
                )
            )
    # Elastic cases come from their own RNG so the draws above stay put.
    rng = np.random.default_rng(20261017)
    for topology in ELASTIC_TOPOLOGIES:
        cases.append(
            cfg_factory(
                policy=POLICIES[int(rng.integers(len(POLICIES)))],
                workload=WORKLOADS[int(rng.integers(len(WORKLOADS)))],
                faults=FAULT_SCENARIOS[int(rng.integers(len(FAULT_SCENARIOS)))],
                endurance=ENDURANCE_MODELS[int(rng.integers(len(ENDURANCE_MODELS)))],
                service=SERVICE_MODELS[int(rng.integers(len(SERVICE_MODELS)))],
                topology=topology,
                seed=int(rng.integers(1, 10_000)),
                **SIZING,
            )
        )
    # Redundant cases too, again from their own RNG.
    rng = np.random.default_rng(20261018)
    for redundancy in REDUNDANCY_SCHEMES:
        cases.append(
            cfg_factory(
                policy=POLICIES[int(rng.integers(len(POLICIES)))],
                workload=WORKLOADS[int(rng.integers(len(WORKLOADS)))],
                faults=FAULT_SCENARIOS[int(rng.integers(len(FAULT_SCENARIOS)))],
                endurance=ENDURANCE_MODELS[int(rng.integers(len(ENDURANCE_MODELS)))],
                service=SERVICE_MODELS[int(rng.integers(len(SERVICE_MODELS)))],
                redundancy=redundancy,
                seed=int(rng.integers(1, 10_000)),
                **SIZING,
            )
        )
    return cases


def assert_groups_spread(state):
    """No placement group has two chunks on one OSD."""
    # Two chunks of one group on one OSD would collide in this key.
    group = np.arange(state.num_chunks, dtype=np.int64) // state.group_width
    key = group * state.num_osds + state.chunk_owner
    assert np.unique(key).size == state.num_chunks, (
        "placement group co-located two chunks on one OSD"
    )


class InvariantRecorder(Recorder):
    """Checks per-epoch invariants in-line; accumulates the alive trajectory."""

    def on_run_start(self, cfg, state):
        self.cfg = cfg
        self.service = None
        self._prev_wear = None
        self._prev_alive = None
        self.alive_per_epoch = []

    def on_block(self, state, block):
        (load,) = block.load  # blocks of one: the live state is this epoch's
        for name in OSD_COLUMNS:
            assert getattr(state, name).shape == (state.num_osds,), f"{name} width drifted"
        alive = state.osd_alive
        # Wear only ever grows, rates are EWMAs of non-negative deltas.  A
        # scale-out appends OSDs, so compare the ones that existed before.
        if self._prev_wear is not None:
            prev = self._prev_wear
            assert (state.osd_wear[:prev.size] >= prev - 1e-9).all(), "wear decreased"
        self._prev_wear = state.osd_wear.copy()
        assert (state.osd_wear_rate >= 0).all(), "negative wear rate"
        # Remaining rated lifetime is clamped, never negative.
        assert (state.remaining_life() >= 0).all(), "negative remaining life"
        # Dead OSDs serve nothing and own nothing; chunks are conserved.
        owned = np.bincount(state.chunk_owner, minlength=state.num_osds)
        assert owned.sum() == state.num_chunks, "chunk lost or duplicated"
        assert (load[~alive] == 0).all(), "dead OSD served load"
        assert (owned[~alive] == 0).all(), "dead OSD owns chunks"
        assert (state.osd_capacity[~alive] == 0).all(), "dead OSD has capacity"
        # Queues: one per OSD, finite, never negative; corpse queues are
        # swept before observers run; without a service model no queue
        # ever forms, since the run has no service recorder.
        assert (self.service is not None) == bool(self.cfg.service)
        if self.service is not None:
            assert self.service.rate.shape == (state.num_osds,), "service rate width drifted"
            for name in ("depth", "backlog"):
                q = getattr(self.service, name)
                assert q.shape == (state.num_osds,), f"service {name} width drifted"
                assert np.isfinite(q).all(), f"non-finite {name}"
                assert (q >= 0).all(), f"negative {name}"
                assert (q[~alive] == 0).all(), f"dead OSD carries {name}"
        # Nobody comes back from the dead; only added drives join alive.
        if self._prev_alive is not None:
            prev = self._prev_alive
            assert not (alive[:prev.size] & ~prev).any(), "OSD resurrected"
        self._prev_alive = alive.copy()
        n_alive = int(alive.sum())
        assert n_alive >= 1, "whole cluster died"
        self.alive_per_epoch.append(n_alive)
        if state.group_width > 1:
            assert_groups_spread(state)

    def on_service(self, service):
        self.service = service

    def finalize(self, state, final_load):
        return None


@pytest.mark.usefixtures("blocks_of_one")
@pytest.mark.parametrize("cfg", sample_configs(), ids=lambda c: c.cache_name())
def test_invariants_hold_across_scenarios(cfg):
    inv = InvariantRecorder()
    ts = TimeSeriesRecorder(record_every=1)
    metrics = simulate(cfg, recorders=(inv, ts))

    # Wear conservation: every unit of wear is a routed write or a migration
    # rewrite (replacement bursts are charged as ordinary migrations).
    expected = (
        metrics["total_writes"] * cfg.wear_per_write
        + metrics["migrations_total"] * cfg.migration_write_cost * cfg.wear_per_write
    )
    assert sum(metrics["per_osd_wear"]) == pytest.approx(expected, rel=1e-9)
    assert metrics["wear_min"] >= 0

    # state / metrics / TimeSeries agree on the alive trajectory.
    assert len(inv.alive_per_epoch) == cfg.epochs
    assert ts.series.alive.tolist() == inv.alive_per_epoch
    final_alive = inv.alive_per_epoch[-1]
    if "osds_alive_final" in metrics:
        assert metrics["osds_alive_final"] == final_alive
    else:
        assert final_alive == cfg.num_osds  # healthy unrated run: no deaths
    deaths = metrics.get("fault_failures", 0) + metrics.get("wearouts_total", 0)
    drained = metrics.get("osds_drained_total", 0)
    assert final_alive == metrics.get("osds_total_final", cfg.num_osds) - deaths - drained

    # Series wear matches the final per-OSD wear bit-for-bit.
    assert np.allclose(ts.series.wear[-1], metrics["per_osd_wear"])


def test_sample_covers_every_policy_and_scenario_kind():
    """Guard the sampler itself: if the draw ever collapses (RNG change,
    axis edit), the suite would silently stop exercising whole subsystems."""
    cases = sample_configs()
    assert {c.policy for c in cases} == set(POLICIES)
    assert any(c.faults for c in cases), "no faulted config sampled"
    assert any(c.endurance for c in cases), "no rated config sampled"
    assert any(c.service for c in cases), "no serviced config sampled"
    assert any(not c.faults and not c.endurance and not c.service for c in cases)
    assert any(c.topology.startswith("add:") for c in cases), "no scale-out sampled"
    assert any(c.topology.startswith("drain:") for c in cases), "no drain sampled"
    assert any(c.redundancy.startswith("rep:") for c in cases), "no replicated config sampled"
    assert any(c.redundancy.startswith("ec:") for c in cases), "no erasure-coded config sampled"
    # Reproducibility: the same seeded draw yields the same sample.
    assert [c.cache_name() for c in sample_configs()] == [c.cache_name() for c in cases]


# --- redundancy invariants ---------------------------------------------------
# The spread constraint must hold at *every* epoch, through every disruption
# that re-homes chunks: scheduled failures, wear-out deaths, and drains.

REDUNDANT_SCENARIOS = [
    # (scheme, scenario overrides) -- all feasible on an 8-OSD cluster:
    # ec:4+2 groups need 6 distinct OSDs, the banded endurance model wears
    # out at most OSDs 0-1 (6 survivors), fail:1 leaves 7, drain:0 leaves 7.
    ("rep:2", dict()),
    ("rep:3", dict(faults="fail:1@8")),
    ("rep:3", dict(endurance="pe:1200@0-1,100000@2-7")),
    ("ec:2+1", dict(faults="slow:2@4x0.5;fail:1@8", service="rate:80;queue:32")),
    ("ec:4+2", dict(faults="fail:1@8")),
    ("ec:4+2", dict(topology="drain:0@8")),
]


class GroupSpreadRecorder(Recorder):
    """Asserts the no-co-location invariant on the live state every epoch."""

    def on_run_start(self, cfg, state):
        assert state.group_width > 1, "redundant run lost its grouping"
        self.epochs_checked = 0

    def on_block(self, state, block):
        assert len(block) == 1  # blocks of one: the live state is this epoch's
        assert_groups_spread(state)
        self.epochs_checked += 1

    def finalize(self, state, final_load):
        return None


@pytest.mark.parametrize(
    "scheme,overrides",
    REDUNDANT_SCENARIOS,
    ids=[f"{s}-{'+'.join(sorted(o)) or 'plain'}" for s, o in REDUNDANT_SCENARIOS],
)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.usefixtures("blocks_of_one")
def test_redundant_groups_never_colocate(policy, scheme, overrides):
    cfg = cfg_factory(policy=policy, redundancy=scheme, seed=11, **SIZING, **overrides)
    spread = GroupSpreadRecorder()
    metrics = simulate(cfg, recorders=(spread,))
    assert spread.epochs_checked == cfg.epochs
    assert metrics["redundancy"] == scheme

    # Reconstruction conserves the wear identity: rebuild *reads* add no
    # wear, the rebuild write is charged as an ordinary migration -- so the
    # same books that balance for plain runs balance under reconstruction.
    expected = (
        metrics["total_writes"] * cfg.wear_per_write
        + metrics["migrations_total"] * cfg.migration_write_cost * cfg.wear_per_write
    )
    assert sum(metrics["per_osd_wear"]) == pytest.approx(expected, rel=1e-9)

    # Reconstruction is charged exactly for chunks re-placed off *dead*
    # OSDs (failures + wear-outs), never for drains, and reads are bounded
    # by the scheme's read amplification.
    dead_replacements = metrics.get("replacement_moves_total", 0) + metrics.get(
        "wearout_replacements_total", 0
    )
    assert metrics["reconstruction_chunks_total"] == dead_replacements
    reads_per_loss = 1 if scheme.startswith("rep") else int(scheme[3:].split("+")[0])
    assert (
        metrics["reconstruction_reads_total"]
        <= metrics["reconstruction_chunks_total"] * reads_per_loss
    )
    assert metrics["data_loss_chunks_total"] == 0  # all scenarios tolerate it
    if overrides.get("topology"):
        assert metrics["drain_moves_total"] > 0  # drained, not reconstructed
