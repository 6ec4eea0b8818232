"""Migration policy interface and shared selection helpers.

Policies only *select* moves; the engine applies them.  The hot path
(routing, wear, EMAs) never enters policy code, so a policy is free to use
small per-OSD loops -- the cluster has tens of OSDs, not thousands.

The shared skeleton: find OSDs whose smoothed load exceeds the cluster mean
by ``overload_tolerance``, walk their chunks in a policy-defined order, and
ship each to a policy-chosen underloaded destination until the source is
back within tolerance or the per-interval budget runs out.

Degraded clusters: when ``state.degraded`` is set (any OSD dead or running
at off-nominal capacity), selection ranks OSDs by *effective* load --
``load / capacity``, infinite for dead OSDs -- and masks dead OSDs out of
both source and destination candidates.  A half-capacity disk therefore
reads as twice as loaded and sheds chunks; a dead disk can never be picked.
On a healthy cluster the degraded branch is never taken and every operation
is bit-identical to the fault-unaware engine.

Draining OSDs (topology scale-in, ``state.osd_draining``) are masked out of
destination candidates everywhere a policy picks one: a drive being
evacuated is a migration *source* only, never a landing spot.

Redundant placement (``state.chunk_group`` set, see :mod:`edm.redundancy`):
a chunk's destination candidates additionally exclude every OSD holding
another member of its placement group, so no group ever co-locates two
chunks on one OSD.  Plain configs carry ``chunk_group=None`` and skip the
filter entirely, keeping their selection bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from edm.config import SimConfig
from edm.engine.state import ClusterState
from edm.faults import effective_load

EMPTY_MOVES = np.empty((0, 2), dtype=np.int64)


def sum_terms(terms: dict[str, np.ndarray]) -> np.ndarray:
    """Fold per-term score arrays into one total, strictly left to right.

    The fold order is the dict's insertion order, so a policy whose historical
    score was ``(a + b) + c`` reproduces that exact floating-point sequence by
    returning ``{"a": ..., "b": ..., "c": ...}`` -- which is what keeps the
    term decomposition and the destination pick bit-identical.
    """
    score = None
    for term in terms.values():
        score = term if score is None else score + term
    return score


def owns_scoring(policy: "MigrationPolicy", method: str) -> bool:
    """True when ``policy``'s ``method`` provably matches its scalar pick.

    ``method`` (``pick_destination_batch`` or ``scorer``) is a vectorized
    stand-in for ``pick_destination``, sound only when the class defining
    it is -- or subclasses -- the class defining the effective scalar
    scoring (``pick_destination`` or ``destination_terms``, whichever sits
    deepest in the MRO: the base pick routes through the terms).  Otherwise
    callers fall back to per-pick calls.
    """
    scalar_owner = method_owner = None
    for klass in type(policy).__mro__:
        if scalar_owner is None and (
            "pick_destination" in vars(klass) or "destination_terms" in vars(klass)
        ):
            scalar_owner = klass
        if method_owner is None and method in vars(klass):
            method_owner = klass
    if scalar_owner is None or method_owner is None:
        return False
    return issubclass(method_owner, scalar_owner)


def candidate_positions(candidates: np.ndarray, num_osds: int) -> np.ndarray:
    """Map OSD id -> index into ``candidates`` (``candidates.size`` if absent),
    so dropping OSD ids is a keep-mask write instead of an ``np.isin``."""
    pos = np.full(num_osds, candidates.size, dtype=np.intp)
    pos[candidates] = np.arange(candidates.size)
    return pos


def destination_picker(
    policy: "MigrationPolicy", candidates: np.ndarray, state: ClusterState, cfg: SimConfig,
    fast: bool,
):
    """``pick(proj_load, keep=None, explain=False) -> (dst, terms, scores)``.

    Picks among ``candidates[keep]`` (all when ``keep`` is None); ``terms``
    and ``scores`` cover that subset when ``explain``, else are None.  When
    ``fast`` (``owns_scoring(policy, "scorer")``), one scorer is built up
    front, and each pick scores all candidates and then subsets --
    bit-identical to scoring the subset by the scorer contract, and
    order-preserving so ``argmin`` keeps its first-minimum tie-break.
    Otherwise each pick calls ``pick_destination`` / ``explain_destination``.
    """
    score = policy.scorer(candidates, state, cfg) if fast else None

    def pick(proj_load, keep=None, explain=False):
        cand = candidates if keep is None else candidates[keep]
        if score is None:
            if explain:
                return policy.explain_destination(cand, proj_load, state, cfg)
            return policy.pick_destination(cand, proj_load, state, cfg), None, None
        terms = score(proj_load)
        scores = sum_terms(terms)
        if keep is not None:
            scores = scores[keep]
            if explain:
                terms = {k: v[keep] for k, v in terms.items()}
        dst = int(cand[np.argmin(scores)])
        return (dst, terms, scores) if explain else (dst, None, None)

    return pick


class MigrationPolicy(ABC):
    name = "abstract"

    @abstractmethod
    def select(self, state: ClusterState, cfg: SimConfig) -> np.ndarray:
        """Return an int array (k, 2) of (chunk_id, dst_osd) moves."""

    def select_explained(self, state: ClusterState, cfg: SimConfig, emit) -> np.ndarray:
        """Like :meth:`select`, but report each destination pick via ``emit``.

        ``emit(chunk, src, dst, candidates, terms, scores)`` is called once
        per selected move with the per-term score decomposition (see
        :meth:`destination_terms`) over the candidate set.  The moves
        returned must be identical to a plain :meth:`select` call on the
        same state -- explanation observes the pick, never changes it.  The
        default covers policies without per-move scoring (baseline never
        picks a destination during selection) by just selecting.
        """
        return self.select(state, cfg)

    def destination_terms(
        self,
        candidates: np.ndarray,
        proj_load: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> dict[str, np.ndarray]:
        """Per-term destination score decomposition over ``candidates``.

        Keys name the score terms, values are float arrays aligned with
        ``candidates``; lower total is better and the total is folded
        left-to-right over insertion order (see :func:`sum_terms`), so the
        decomposition *defines* the scoring: :meth:`pick_destination` is the
        argmin of the folded terms.  The default scores by projected load
        alone -- the least-loaded candidate wins.
        """
        return {"load": proj_load[candidates]}

    def scorer(self, candidates: np.ndarray, state: ClusterState, cfg: SimConfig):
        """``score(proj_load) -> terms``: :meth:`destination_terms` over
        ``candidates``, with whatever does not depend on projected load
        computed once; valid while ``state`` is unchanged (one re-placement
        burst or selection round).

        Contract -- **candidate independence**: every term is elementwise per
        OSD and every normalizer cluster-wide, so ``scorer(superset)(p)``
        masked to a subset equals ``scorer(subset)(p)`` bit-for-bit.  The
        engine relies on it to score one candidate set per pick and mask it
        per chunk (pinned per policy by tests/test_policy_conformance.py).
        """
        return lambda proj_load: self.destination_terms(candidates, proj_load, state, cfg)

    def pick_destination(
        self,
        candidates: np.ndarray,
        proj_load: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> int:
        """Pick a destination among candidate OSD ids (default: least load).

        Shared by interval selection *and* failure re-placement: when an OSD
        dies, the engine routes its chunks through the active policy's
        destination scoring, so even the no-migration baseline has a
        well-defined answer here.  The score is the left-to-right fold of
        :meth:`destination_terms`, so the pick and its explanation can never
        disagree.
        """
        return int(candidates[np.argmin(sum_terms(
            self.destination_terms(candidates, proj_load, state, cfg)
        ))])

    def explain_destination(
        self,
        candidates: np.ndarray,
        proj_load: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> tuple[int, dict[str, np.ndarray], np.ndarray]:
        """:meth:`pick_destination` plus its evidence: ``(dst, terms, scores)``,
        the winning OSD id, the per-term decomposition over ``candidates``,
        and the folded total scores whose argmin the winner is."""
        terms = self.destination_terms(candidates, proj_load, state, cfg)
        scores = sum_terms(terms)
        return int(candidates[np.argmin(scores)]), terms, scores

    def pick_destination_batch(
        self,
        candidates: np.ndarray,
        proj_rows: np.ndarray,
        state: ClusterState,
        cfg: SimConfig,
    ) -> np.ndarray:
        """Vectorized ``pick_destination`` over many projected-load vectors.

        ``proj_rows`` is a (rows, num_osds) matrix; the result's entry ``i``
        must equal ``pick_destination(candidates, proj_rows[i], ...)``
        **bit-for-bit** -- the engine's batched failure re-placement replays
        the scalar greedy through this method (see
        :func:`edm.engine.core.replace_dead_chunks`), so any subclass that
        overrides ``pick_destination`` must override this in lockstep or the
        engine falls back to one ``pick_destination`` call per chunk.

        Default scoring is raw projected load, so a row-wise argmin over the
        candidate columns reproduces the scalar pick exactly (ties resolve
        to the first minimum in both shapes).
        """
        return candidates[np.argmin(proj_rows[:, candidates], axis=1)]


class ThresholdPolicy(MigrationPolicy):
    """Overload-threshold skeleton shared by CDF / HDF / CMT."""

    def chunk_order(self, chunk_ids: np.ndarray, state: ClusterState) -> np.ndarray:
        """Order candidate chunks on an overloaded OSD (first = first moved)."""
        raise NotImplementedError

    def select(self, state: ClusterState, cfg: SimConfig) -> np.ndarray:
        return self._select(state, cfg, emit=None)

    def select_explained(self, state: ClusterState, cfg: SimConfig, emit) -> np.ndarray:
        return self._select(state, cfg, emit=emit)

    def _select(self, state: ClusterState, cfg: SimConfig, emit) -> np.ndarray:
        alive = state.osd_alive
        cap = state.osd_capacity
        if state.degraded:
            if not alive.any():
                return EMPTY_MOVES
            proj = effective_load(state.osd_load_ema, cap, alive)
            mean = proj[alive].mean()
        else:
            proj = state.osd_load_ema.copy()
            mean = proj.mean()
        if mean <= 0:
            return EMPTY_MOVES
        high = mean * (1.0 + cfg.overload_tolerance)
        overloaded = np.flatnonzero((proj > high) & alive)
        if overloaded.size == 0:
            return EMPTY_MOVES
        eligible = state.eligible_mask(cfg)
        # One destination set per call (alive, not draining) and one picker
        # scoring it; each chunk narrows it with a keep-mask.
        dest = np.flatnonzero(alive & ~state.osd_draining)
        pick = destination_picker(self, dest, state, cfg, owns_scoring(self, "scorer"))
        explain = emit is not None
        w = state.group_width
        pos = candidate_positions(dest, state.num_osds) if w else None
        # Destinations already claimed this round, per placement group:
        # chunk_owner only changes when the engine applies the moves, so two
        # same-group chunks selected in one round would otherwise not see
        # each other's landing spots.  (Redundant configs only.)
        claimed: dict[int, list[int]] = {}

        budget = cfg.max_migrations_per_interval
        moves: list[tuple[int, int]] = []
        # Heaviest sources first.
        for src in overloaded[np.argsort(-proj[overloaded])]:
            if budget <= 0:
                break
            mine = np.flatnonzero((state.chunk_owner == src) & eligible)
            if mine.size == 0:
                continue
            for chunk in self.chunk_order(mine, state):
                if budget <= 0 or proj[src] <= high:
                    break
                keep = proj[dest] < mean
                if not keep.any():
                    break
                if w:
                    group = int(state.chunk_group[chunk])
                    lo = (int(chunk) // w) * w
                    hit = pos[[*state.chunk_owner[lo : lo + w], *claimed.get(group, ())]]
                    keep[hit[hit < dest.size]] = False
                    if not keep.any():
                        # Every underloaded OSD already holds (or was just
                        # claimed for) a member of this chunk's placement
                        # group; the next chunk may differ.
                        continue
                dst, terms, scores = pick(proj, keep, explain)
                heat = state.chunk_heat[chunk]
                # A chunk's load lands scaled by the destination's capacity
                # (cap == 1.0 everywhere on a healthy cluster, so these
                # divisions are exact no-ops there).  Never move load onto an
                # OSD that would end up hotter than the source it came from.
                heat_dst = heat / cap[dst]
                if proj[dst] + heat_dst >= proj[src]:
                    continue
                if explain:
                    emit(int(chunk), int(src), dst, dest[keep], terms, scores)
                if w:
                    claimed.setdefault(group, []).append(dst)
                moves.append((int(chunk), dst))
                proj[src] -= heat / cap[src]
                proj[dst] += heat_dst
                budget -= 1
        if not moves:
            return EMPTY_MOVES
        return np.asarray(moves, dtype=np.int64)


class NormalizedScorePolicy(ThresholdPolicy):
    """Destination scoring over cluster-mean-normalized load, with hooks.

    The scoring shape CMT established, factored so the zoo shares one
    scalar/batch pairing: the projected load of each candidate is normalized
    by the mean over *alive* OSDs (cluster-wide, never the candidate subset,
    so a drive's score is independent of who else is a candidate), then

      * :meth:`load_terms` maps that normalized load to one or more score
        terms with shape-agnostic arithmetic (the same expression must work
        on a 1-D candidate vector and a 2-D rows x candidates matrix), and
      * :meth:`static_destination_terms` appends terms that do not depend on
        projected load at all (wear, wear-out risk) -- frozen across a
        re-placement burst, broadcast across batch rows.

    ``destination_terms`` folds load terms first, static terms after, in
    insertion order; ``pick_destination_batch`` replays the identical
    floating-point sequence row-wise, so every subclass gets a batch path
    provably bit-identical to its scalar pick (pinned by
    tests/test_policy_conformance.py across the whole registry).

    :meth:`scorer` computes the static terms once per burst or selection
    round, not once per pick.  Both hooks must keep the scorer contract:
    terms elementwise per OSD, normalizers cluster-wide.
    """

    def load_terms(
        self, load_norm: np.ndarray, state: ClusterState, cfg: SimConfig
    ) -> dict[str, np.ndarray]:
        """Score terms computed from the normalized projected load."""
        return {"load": load_norm}

    def static_destination_terms(
        self, candidates: np.ndarray, state: ClusterState, cfg: SimConfig
    ) -> dict[str, np.ndarray]:
        """Load-independent score terms, aligned with ``candidates``."""
        return {}

    def scorer(self, candidates, state, cfg):
        """Static terms frozen once; each call redoes only the load terms,
        with the exact arithmetic :meth:`destination_terms` is defined by."""
        static = self.static_destination_terms(candidates, state, cfg)
        alive = state.osd_alive
        any_alive = alive.any()

        def score(proj_load):
            load = proj_load[candidates]
            mean_load = proj_load[alive].mean() if any_alive else 0.0
            load_norm = load / mean_load if mean_load > 0 else load
            terms = dict(self.load_terms(load_norm, state, cfg))
            terms.update(static)
            return terms

        return score

    def destination_terms(self, candidates, proj_load, state, cfg):
        return self.scorer(candidates, state, cfg)(proj_load)

    def pick_destination_batch(self, candidates, proj_rows, state, cfg):
        """Row-wise scoring, bit-identical to the scalar pick.

        Each row normalizes by its own alive-mean, falling back to the raw
        load for rows whose mean is not positive -- the same branch the
        scalar path takes.  Load terms fold first, then static terms (1-D,
        broadcast across rows) are added in order: the exact addition
        sequence of ``sum_terms`` over :meth:`destination_terms`.
        """
        alive = state.osd_alive
        load = proj_rows[:, candidates]
        if alive.any():
            mean_load = proj_rows[:, alive].mean(axis=1)[:, None]
        else:
            mean_load = np.zeros((len(proj_rows), 1))
        load_norm = load.copy()
        np.divide(load, mean_load, out=load_norm, where=mean_load > 0)
        score = sum_terms(self.load_terms(load_norm, state, cfg))
        for term in self.static_destination_terms(candidates, state, cfg).values():
            score = score + term
        return candidates[np.argmin(score, axis=1)]
