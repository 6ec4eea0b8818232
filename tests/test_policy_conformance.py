"""Differential policy-conformance harness over the whole registry.

Every registered policy must honor the full :class:`MigrationPolicy`
surface contract, not just the paper's four:

  * selection never lands a chunk on a dead or draining OSD, and
    ``select(..., emit)`` returns the same moves as ``select(...)``, each
    emitted once with a keep-mask that holds its destination -- an
    explained pick is always the pick;
  * ``scorer`` is **candidate-independent**: ``scorer(superset)(proj)``
    masked to a subset equals ``scorer(subset)(proj)`` bit-for-bit -- the
    engine scores a burst's whole candidate set once per pick and subsets
    it per chunk, so a policy whose terms depend on who else is a candidate
    would silently change results;
  * the masked pick is the subset pick: ``pick(proj, keep)`` lands where
    scoring ``candidates[keep]`` from scratch does, and its terms and
    scores narrowed to ``keep`` -- what a decision reports -- are that
    subset scorer's, bit for bit -- on random masks, tied scores, a kept
    subset scoring all +inf (the picker's fallback) and a NaN score.

The checks run against *live* engine states sampled mid-run (via a
Recorder) across a seeded draw of the fault x endurance x service x
topology scenario grid, so every policy is exercised healthy, degraded,
rated, serviced, and mid-drain -- the states where the contracts are
easiest to break.
"""

import copy

import numpy as np
import pytest

from conftest import cfg_factory
from edm.config import POLICIES, WORKLOADS
from edm.engine.core import simulate
from edm.policies import get_policy
from edm.policies.base import destination_picker, sum_terms
from edm.telemetry import Recorder

SIZING = dict(num_osds=8, epochs=16, requests_per_epoch=512, chunks_per_osd=8)

# One healthy pin plus a seeded draw over the scenario axes (below).
FAULT_SCENARIOS = ("", "fail:1@4", "slow:2@3x0.5;fail:1@6")
ENDURANCE_MODELS = ("", "pe:1200@0-1,100000@2-7")
SERVICE_MODELS = ("", "rate:80;queue:32")
TOPOLOGY_PLANS = ("", "add:2@6/cap:1;drain:0@10")


def sample_cases():
    """Seeded scenario draw; every policy gets the healthy pin + two draws."""
    rng = np.random.default_rng(20260808)
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
                    topology="" if pinned else TOPOLOGY_PLANS[int(rng.integers(len(TOPOLOGY_PLANS)))],
                    seed=int(rng.integers(1, 10_000)),
                    **SIZING,
                )
            )
    return cases


def assert_same_terms(got, want):
    assert list(got) == list(want)
    for key in got:
        assert got[key].tobytes() == want[key].tobytes(), key


def check_scorer_contract(policy, state, cfg, rows, rng):
    """Superset-scored-then-masked == subset-scored, bitwise, on every row."""
    superset = np.flatnonzero(state.osd_alive & ~state.osd_draining)
    subset = np.sort(rng.choice(superset, size=max(1, superset.size // 2), replace=False))
    keep = np.isin(superset, subset)
    full = policy.scorer(superset, state, cfg)
    part = policy.scorer(subset, state, cfg)
    for row in rows:
        terms = full(row)
        assert all(v.shape == superset.shape for v in terms.values())
        masked = {k: v[keep] for k, v in terms.items()}
        assert_same_terms(masked, part(row))


def check_masked_pick(policy, state, cfg, rows, rng):
    """``pick(proj, keep)`` == the subset formulation, pick and scores.

    Returns how many cases took the picker's fallback (every kept score
    +inf).
    """
    candidates = np.flatnonzero(state.osd_alive & ~state.osd_draining)
    # A twin in which a quarter of the candidates count as dead: their
    # projected load may be +inf or NaN without reaching the alive-mean
    # normalizers, so only their own scores turn +inf or NaN.
    gone = rng.choice(candidates, size=max(1, candidates.size // 4), replace=False)
    twin = copy.copy(state)
    twin.osd_alive = state.osd_alive.copy()
    twin.osd_alive[gone] = False
    is_gone = np.isin(candidates, gone)
    inf_row, nan_row = rows[0].copy(), rows[0].copy()
    inf_row[gone] = np.inf
    nan_row[gone[0]] = np.nan
    cases = [
        *((state, row, rng.random(candidates.size) < 0.5) for row in rows),
        # Integer-valued loads: ties the argmin must break the same way.
        *((state, rng.integers(0, 3, size=row.shape).astype(float),
           rng.random(candidates.size) < 0.7) for row in rows),
        (twin, inf_row, is_gone),
        (twin, nan_row, is_gone | (rng.random(candidates.size) < 0.5)),
    ]
    fallbacks = 0
    for st, proj, keep in cases:
        keep[rng.integers(keep.size)] = True
        pick = destination_picker(policy, candidates, st, cfg)
        subset = candidates[keep]
        with np.errstate(invalid="ignore"):  # inf - inf in the NaN cases
            dst, terms, picked = pick(proj, keep)
            want = policy.scorer(subset, st, cfg)(proj)
            scores = sum_terms(want)
        assert dst == subset[np.argmin(scores)], (policy.name, proj, keep)
        assert_same_terms({k: v[keep] for k, v in terms.items()}, want)
        assert picked[keep].tobytes() == scores.tobytes()
        fallbacks += bool(np.all(scores == np.inf))
    return fallbacks


def state_kinds(state):
    """Which of the scorer-relevant state kinds ``state`` is."""
    healthy = state.osd_alive.all() and (state.osd_capacity == 1.0).all()
    kinds = {"healthy" if healthy else "degraded"}
    if np.isfinite(state.osd_rated_life).any():
        kinds.add("rated")
    if state.osd_draining.any():
        kinds.add("draining")
    return kinds


class ConformanceChecker(Recorder):
    """Runs the surface-contract checks against the live state every epoch."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.policy = get_policy(cfg.policy)
        self.rng = np.random.default_rng(cfg.seed + 1)
        self.states_checked = 0
        self.moves_checked = 0
        self.scorer_kinds = set()
        self.fallbacks = 0

    def on_block(self, state, block):
        assert len(block) == 1  # blocks of one: the live state is this epoch's
        cfg, policy = self.cfg, self.policy
        candidates = np.flatnonzero(state.osd_alive & ~state.osd_draining)
        if candidates.size < 2:
            return
        self.states_checked += 1

        # A handful of projected-load vectors: the real smoothed load plus
        # perturbations (re-placement projects load forward chunk by chunk,
        # so the contract must hold on *any* non-negative vector).
        base = state.osd_load_ema
        rows = [
            base,
            *(base * self.rng.uniform(0.25, 2.0, size=base.shape) for _ in range(3)),
        ]

        # The scorer contract, on the live state and on a twin with one more
        # OSD mid-drain (drains finish inside an epoch boundary, so observers
        # never see a draining drive on their own).
        draining = copy.copy(state)
        draining.osd_draining = state.osd_draining.copy()
        draining.osd_draining[candidates[-1]] = True
        for st in (state, draining):
            check_scorer_contract(policy, st, cfg, rows, self.rng)
            self.fallbacks += check_masked_pick(policy, st, cfg, rows, self.rng)
            self.scorer_kinds |= state_kinds(st)

        # Selection: explained == plain, and no move lands on a dead or
        # draining OSD.  (select never mutates state, so calling it here
        # does not perturb the run.)
        picks = []

        def emit(c, s, d, cand, keep, t, sc):
            assert d in cand[keep]
            picks.append((c, d))

        moves = policy.select(state, cfg, emit)
        plain = policy.select(state, cfg)
        assert np.array_equal(moves, plain), (
            f"{policy.name}: explained select diverged from plain select"
        )
        for chunk, dst in np.asarray(moves).reshape(-1, 2):
            assert state.osd_alive[dst], f"{policy.name} picked a dead OSD"
            assert not state.osd_draining[dst], (
                f"{policy.name} picked a draining OSD"
            )
            self.moves_checked += 1
        assert [(c, d) for c, d in np.asarray(moves).reshape(-1, 2)] == [
            (int(c), int(d)) for c, d in picks
        ] or picks == []  # baseline never emits

    def finalize(self, state, final_load):
        return None


@pytest.mark.usefixtures("blocks_of_one")
@pytest.mark.parametrize("cfg", sample_cases(), ids=lambda c: c.cache_name())
def test_policy_surface_contracts(cfg):
    checker = ConformanceChecker(cfg)
    simulate(cfg, recorders=(checker,))
    assert checker.states_checked > 0


@pytest.mark.usefixtures("blocks_of_one")
@pytest.mark.parametrize("policy", POLICIES)
def test_scorer_contract_holds_on_every_state_kind(policy):
    # Healthy epochs, then degraded after the failure; a rated cluster with
    # scale-out; every state also checked with one drive mid-drain.
    checkers = [
        ConformanceChecker(cfg_factory(policy=policy, faults="fail:1@6", seed=5, **SIZING)),
        ConformanceChecker(cfg_factory(
            policy=policy, endurance=ENDURANCE_MODELS[1], topology=TOPOLOGY_PLANS[1],
            seed=5, **SIZING,
        )),
    ]
    for checker in checkers:
        simulate(checker.cfg, recorders=(checker,))
    kinds = set().union(*(c.scorer_kinds for c in checkers))
    assert kinds >= {"healthy", "degraded", "rated", "draining"}
    # Consolidate's packing term turns +inf load into NaN (-inf + inf), so
    # its all-+inf case is another NaN case; every other policy's scores
    # stay +inf and reach the picker's fallback.
    fallbacks = sum(c.fallbacks for c in checkers)
    assert fallbacks == 0 if policy == "consolidate" else fallbacks > 0


def test_sample_covers_every_policy_and_scenario_kind():
    cases = sample_cases()
    assert {c.policy for c in cases} == set(POLICIES)
    assert any(c.faults for c in cases), "no faulted config sampled"
    assert any(c.endurance for c in cases), "no rated config sampled"
    assert any(c.service for c in cases), "no serviced config sampled"
    assert any(c.topology for c in cases), "no elastic config sampled"
    # Reproducibility: the same seeded draw yields the same sample.
    assert [c.cache_name() for c in sample_cases()] == [c.cache_name() for c in cases]


def test_redundant_selection_respects_group_constraints():
    """Under rep:3 every policy's selected moves keep groups spread."""
    for policy_name in POLICIES:
        cfg = cfg_factory(policy=policy_name, redundancy="rep:3", **SIZING)
        metrics = simulate(cfg)  # state.validate-style invariant lives in
        assert metrics["redundancy"] == "rep:3"  # test_invariants_property
