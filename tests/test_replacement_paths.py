"""Differential tests: the engine's re-placement and selection paths against
the per-chunk references in replacement_reference.py.

``_assign_sequential`` -- the one re-placement path, for every burst --
builds one destination picker per burst and narrows a fixed candidate set
per chunk with a keep-mask built from a group-owner matrix;
``ThresholdPolicy.select`` does the same per selection round.  Both rest on
the scorer contract (candidate-independent terms) to stay bit-identical to
recomputing each chunk's candidates with ``np.isin`` and scoring them from
scratch.  These tests pin that equality on every burst and every selection
round of real runs -- destinations, the projected-load vector's bytes, and
each explained decision's candidates, terms and scores -- across the whole
policy registry, plain and redundant placement, explained or not, and all
three re-placement triggers (failure, drain, wear-out).
"""

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.config import POLICIES
from edm.engine import core as core_mod
from edm.engine.core import _assign_sequential, replace_dead_chunks, simulate
from edm.engine.state import init_state
from edm.faults import effective_load
from edm.policies import get_policy
from edm.policies.base import ThresholdPolicy
from edm.telemetry import Recorder
from replacement_reference import assign_reference, select_reference

SCHEMES = ("", "rep:2", "rep:3", "ec:4+2")


def scenario(policy, redundancy):
    """One run with a failure, a drain and a wear-out re-placement burst.

    70 chunks leave a trailing partial group under rep:3 (70 = 23*3 + 1)
    and ec:4+2 (70 = 11*6 + 4).
    """
    return cfg_factory(
        policy=policy, redundancy=redundancy, num_osds=10, chunks_per_osd=7,
        epochs=16, seed=3, faults="fail:1@4", topology="drain:2@8",
        endurance="pe:300@0,100000@1-9",
    )


def assert_same_decisions(got, want):
    """The run's emitted :class:`Decision` records against the reference's
    ``(*ids, candidates, terms, scores)`` tuples over each pick's own
    candidate subset, compared bytewise."""
    assert len(got) == len(want)
    for d, (*rids, rcand, rterms, rscores) in zip(got, want):
        ids = [d.chunk, d.src, d.dst] if len(rids) == 3 else [d.chunk, d.dst]
        assert ids == rids
        assert np.array(d.candidates).tobytes() == rcand.astype(np.int64).tobytes()
        assert list(d.terms) == list(rterms)
        for key in d.terms:
            want = np.asarray(rterms[key], dtype=np.float64)
            assert np.array(d.terms[key]).tobytes() == want.tobytes(), key
        assert np.array(d.scores).tobytes() == rscores.astype(np.float64).tobytes()


class Explaining(Recorder):
    """Overrides on_decision, which makes every burst emit its decisions."""

    def __init__(self):
        self.decisions = []

    def on_decision(self, state, decision):
        self.decisions.append(decision)


@pytest.mark.parametrize("redundancy", SCHEMES, ids=lambda s: s or "plain")
@pytest.mark.parametrize("policy", POLICIES)
def test_assign_sequential_matches_reference_on_every_burst(policy, redundancy, monkeypatch):
    real = core_mod._assign_sequential
    bursts = []
    explaining = Explaining()

    def checked(order, proj, alive_ids, pol, state, cfg, emit=None):
        ref_proj, ref_log = proj.copy(), []
        ref = assign_reference(order, ref_proj, alive_ids, pol, state, cfg)
        assign_reference(order, proj.copy(), alive_ids, pol, state, cfg,
                         emit=lambda *d: ref_log.append(d))
        exp_proj = proj.copy()
        explained = real(order, exp_proj, alive_ids, pol, state, cfg, emit=lambda *d: None)
        seen = len(explaining.decisions)
        dsts = real(order, proj, alive_ids, pol, state, cfg, emit)
        assert dsts.tolist() == ref.tolist() == explained.tolist()
        assert proj.tobytes() == ref_proj.tobytes() == exp_proj.tobytes()
        if emit is not None:
            # The run's emitter narrows each pick to its own candidates.
            assert_same_decisions(explaining.decisions[seen:], ref_log)
        bursts.append(order.size)
        return dsts

    monkeypatch.setattr(core_mod, "_assign_sequential", checked)
    # Unexplained and explained runs: the engine passes ``emit`` through.
    for recorders in ((), (explaining,)):
        metrics = simulate(scenario(policy, redundancy), recorders=recorders)
        assert metrics["fault_failures"] == 1
        assert metrics["wearouts_total"] == 1
        assert metrics["drain_moves_total"] > 0
    assert len(bursts) == 6 and all(bursts)
    assert {d.trigger for d in explaining.decisions} >= {"fault", "drain", "wearout"}


@pytest.mark.parametrize("redundancy", ["", "rep:3", "ec:4+2"], ids=lambda s: s or "plain")
@pytest.mark.parametrize("policy", POLICIES)
def test_replace_dead_chunks_matches_reference_for_every_victim(policy, redundancy):
    # Random loads, each OSD the victim in turn: under redundancy this
    # reaches the trailing partial group, whose id window runs past the
    # last chunk.
    rng = np.random.default_rng(9)
    cfg = cfg_factory(num_osds=8, policy=policy, redundancy=redundancy)
    pol = get_policy(policy)
    for _ in range(3):
        for victim in range(cfg.num_osds):
            state = init_state(cfg)
            state.osd_load_ema[:] = rng.uniform(0.5, 2.0, cfg.num_osds)
            state.chunk_heat[:] = rng.uniform(0.1, 5.0, cfg.num_chunks)
            state.osd_alive[victim] = False
            chunks = np.flatnonzero(state.chunk_owner == victim)
            order = chunks[np.argsort(-state.chunk_heat[chunks], kind="stable")]
            proj = effective_load(state.osd_load_ema, state.osd_capacity, state.osd_alive)
            ref = assign_reference(
                order, proj, np.flatnonzero(state.osd_alive), pol, state, cfg
            )
            replace_dead_chunks(state, victim, pol, cfg)
            assert state.chunk_owner[order].tolist() == ref.tolist()


class SelectionChecker(Recorder):
    """Compares every epoch's selection with the reference on the live state,
    and each round's emitted decisions with the reference's."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.policy = get_policy(cfg.policy)
        self.rounds = 0
        self.ref_log, self.decisions = [], []
        self.emitted = 0  # decisions checked against the reference

    def on_block(self, state, block):
        (epoch,) = block.epochs  # blocks of one: the live state is this epoch's
        self._check_round()
        cfg = self.cfg
        ref_log = []
        moves = self.policy.select(state, cfg, lambda *d: None)
        ref = select_reference(self.policy, state, cfg, emit=lambda *d: ref_log.append(d))
        assert moves.tobytes() == ref.tobytes()
        assert self.policy.select(state, cfg).tobytes() == ref.tobytes()
        assert select_reference(self.policy, state, cfg).tobytes() == ref.tobytes()
        self.rounds += bool(ref.size)
        if (epoch + 1) % cfg.migrate_interval == 0:  # a round follows the block
            self.ref_log = ref_log

    def on_decision(self, state, decision):
        if decision.trigger == "threshold":
            self.decisions.append(decision)

    def finalize(self, state, final_load):
        self._check_round()

    def _check_round(self):
        # The engine selected on the state the last block saw, through its
        # emitter.
        assert_same_decisions(self.decisions, self.ref_log)
        self.emitted += len(self.decisions)
        self.ref_log, self.decisions = [], []


@pytest.mark.usefixtures("blocks_of_one")
@pytest.mark.parametrize("redundancy", SCHEMES, ids=lambda s: s or "plain")
@pytest.mark.parametrize(
    "policy", [p for p in POLICIES if isinstance(get_policy(p), ThresholdPolicy)]
)
def test_threshold_selection_matches_reference_every_epoch(policy, redundancy):
    cfg = scenario(policy, redundancy)
    checker = SelectionChecker(cfg)
    simulate(cfg, recorders=(checker,))
    assert checker.rounds > 0
    assert checker.emitted > 0


class WorstFit(ThresholdPolicy):
    """A third-party policy: worst-fit through nothing but a scorer override."""

    name = "worst-fit"

    def chunk_order(self, chunk_ids, state):
        return chunk_ids

    def scorer(self, candidates, state, cfg):
        return lambda proj: {"load": -proj[candidates]}


def test_scalar_only_policy_keeps_per_chunk_picks_under_constraints():
    cfg = cfg_factory(num_osds=8, redundancy="ec:4+2")
    state = init_state(cfg)
    state.chunk_heat[:] = np.random.default_rng(5).uniform(0.1, 5.0, cfg.num_chunks)
    state.osd_alive[3] = False
    order = np.flatnonzero(state.chunk_owner == 3)
    alive_ids = np.flatnonzero(state.osd_alive)
    # Each chunk's group peers' owners: windows of ``c // w``.
    w = state.group_width
    group = np.arange(cfg.num_chunks) // w
    peers = [state.chunk_owner[group == group[c]] for c in order]
    pol = WorstFit()
    proj, ref_proj = state.osd_load_ema.copy(), state.osd_load_ema.copy()
    dsts = _assign_sequential(order, proj, alive_ids, pol, state, cfg)
    ref = assign_reference(order, ref_proj, alive_ids, pol, state, cfg)
    assert dsts.tolist() == ref.tolist()
    assert proj.tobytes() == ref_proj.tobytes()
    # Worst-fit picks, yet never onto a group peer's OSD.
    for owners, dst in zip(peers, dsts):
        assert dst not in owners


def test_scorer_only_policy_takes_the_batched_rounds(monkeypatch):
    # No opt-in: plain bursts of a policy that overrides only ``scorer`` run
    # through ``_assign_sequential``, each matching the per-chunk reference,
    # and the whole run matches re-placing each chunk with the reference.
    cfg = cfg_factory(num_osds=8, seed=7, faults="fail:1@4;fail:5@9")
    monkeypatch.setattr(core_mod, "get_policy", lambda name: WorstFit())
    real = core_mod._assign_sequential
    bursts = []

    def checked(order, proj, alive_ids, pol, state, cfg, emit=None):
        ref_proj = proj.copy()
        ref = assign_reference(order, ref_proj, alive_ids, pol, state, cfg)
        dsts = real(order, proj, alive_ids, pol, state, cfg, emit)
        assert dsts.tolist() == ref.tolist()
        assert proj.tobytes() == ref_proj.tobytes()
        bursts.append(order.size)
        return dsts

    monkeypatch.setattr(core_mod, "_assign_sequential", checked)
    fast = simulate(cfg)
    assert len(bursts) == 2 and all(bursts)
    monkeypatch.setattr(core_mod, "_assign_sequential", assign_reference)
    assert simulate(cfg) == fast


def test_unsatisfiable_group_constraint_raises():
    cfg = cfg_factory(num_osds=4, policy="hdf", chunks_per_osd=2)
    state = make_state(cfg)
    alive_ids = np.array([1, 2])
    order = np.array([0])
    # Chunk 0's group is chunks 0-2 (``c // 3``), on OSDs 0, 1 and 2: every
    # survivor holds a group peer.
    state.chunk_owner[:3] = [0, 1, 2]
    state.group_width = 3
    with pytest.raises(RuntimeError, match="no constraint-satisfying destination"):
        _assign_sequential(
            order, state.osd_load_ema.copy(), alive_ids, get_policy("hdf"), state, cfg
        )
