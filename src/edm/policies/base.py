"""Migration policy interface and shared selection helpers.

Policies only *select* moves; the engine applies them.  The hot path
(routing, wear, EMAs) never enters policy code, so a policy is free to use
small per-OSD loops -- the cluster has tens of OSDs, not thousands.

The shared skeleton: find OSDs whose smoothed load exceeds the cluster mean
by ``overload_tolerance``, walk their chunks in a policy-defined order, and
ship each to a policy-chosen underloaded destination until the source is
back within tolerance or the per-interval budget runs out.

Selection ranks OSDs by *effective* load -- ``load / capacity``, infinite
for dead OSDs -- and masks dead OSDs out of both source and destination
candidates.  A half-capacity disk therefore reads as twice as loaded and
sheds chunks; a dead disk can never be picked.  On a healthy cluster every
capacity is exactly 1.0 and every OSD alive, so effective load is raw load
and selection is bit-identical to a fault-unaware engine.

Draining OSDs (topology scale-in, ``state.osd_draining``) are masked out of
destination candidates everywhere a policy picks one: a drive being
evacuated is a migration *source* only, never a landing spot.

Redundant placement (``state.group_width > 1``, see :mod:`edm.redundancy`):
a chunk's destination candidates additionally exclude every OSD holding
another member of its placement group
(:meth:`~edm.engine.state.ClusterState.group_owners`), so no group ever
co-locates two chunks on one OSD.  A plain cluster's groups are single
chunks, whose only member sits on the source selection already excludes.
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


def coldest_active_first(chunk_ids: np.ndarray, state: ClusterState) -> np.ndarray:
    """Chunks with traffic, coldest first: each move disturbs little ongoing
    traffic, and stone-cold chunks, which shed no load, are never moved."""
    heat = state.chunk_heat[chunk_ids]
    active = heat > 0
    return chunk_ids[active][np.argsort(heat[active])]


def candidate_positions(candidates: np.ndarray, num_osds: int) -> np.ndarray:
    """Map OSD id -> index into ``candidates`` (``candidates.size`` if absent),
    so dropping OSD ids is a keep-mask write instead of an ``np.isin``."""
    pos = np.full(num_osds, candidates.size, dtype=np.intp)
    pos[candidates] = np.arange(candidates.size)
    return pos


def destination_picker(
    policy: "MigrationPolicy", candidates: np.ndarray, state: ClusterState, cfg: SimConfig
):
    """``pick(proj_load, keep) -> (dst, terms, scores)``.

    Picks among ``candidates[keep]`` (``keep`` keeps at least one);
    ``terms`` and ``scores`` cover every candidate (a decision's emitter
    narrows them to ``keep``).  One scorer is built up
    front, and each pick scores all candidates -- bit-identical to scoring
    the subset by the scorer contract.  Dropped candidates score +inf, so
    ``argmin`` finds the subset's first minimum (or first NaN); when every
    kept score is +inf it lands on a dropped one, and the first kept
    candidate wins instead, as in the subset.
    """
    score = policy.scorer(candidates, state, cfg)

    def pick(proj_load, keep):
        terms = score(proj_load)
        scores = sum_terms(terms)
        i = np.where(keep, scores, np.inf).argmin()
        if not keep[i]:
            i = keep.argmax()
        return int(candidates[i]), terms, scores

    return pick


class MigrationPolicy(ABC):
    name = "abstract"

    @abstractmethod
    def select(self, state: ClusterState, cfg: SimConfig, emit=None) -> np.ndarray:
        """Return an int array (k, 2) of (chunk_id, dst_osd) moves.

        ``emit(chunk, src, dst, candidates, keep, terms, scores)``, when
        given, is called once per selected move with the per-term score
        decomposition (see :meth:`scorer`) over ``candidates``, of which the
        pick's own are ``candidates[keep]``.
        Explanation observes the pick, never changes it: the moves are the
        same with or without ``emit``.
        """

    def scorer(self, candidates: np.ndarray, state: ClusterState, cfg: SimConfig):
        """``score(proj) -> terms``: the policy's destination score.

        The one scoring hook: interval selection, failure / wear-out / drain
        re-placement and decision provenance all pick through it, so even
        the no-migration baseline has a well-defined answer.  ``proj`` is
        one projected-load vector ``(num_osds,)``; keys name the score
        terms, values are float arrays aligned with ``candidates``.  Lower
        total is better, folded left to right over insertion order (see
        :func:`sum_terms`); the pick is the first minimum.  Whatever does
        not depend on ``proj`` may be computed once: ``score`` is valid
        while ``state`` is unchanged (one re-placement burst or selection
        round).  The default scores by projected load alone.

        Contract (pinned per policy by tests/test_policy_conformance.py):
        **candidate independence** -- every term is elementwise per OSD and
        every normalizer cluster-wide, so ``scorer(superset)(p)`` masked to
        a subset equals ``scorer(subset)(p)``; the engine scores one
        candidate set per pick and masks it per chunk.
        """
        return lambda proj: {"load": proj[candidates]}


class ThresholdPolicy(MigrationPolicy):
    """Overload-threshold skeleton shared by CDF / HDF / CMT."""

    def chunk_order(self, chunk_ids: np.ndarray, state: ClusterState) -> np.ndarray:
        """Order candidate chunks on an overloaded OSD (first = first moved):
        hottest first, unless a policy overrides it."""
        return chunk_ids[np.argsort(-state.chunk_heat[chunk_ids])]

    def select(self, state: ClusterState, cfg: SimConfig, emit=None) -> np.ndarray:
        alive = state.osd_alive
        cap = state.osd_capacity
        if not alive.any():
            return EMPTY_MOVES
        proj = effective_load(state.osd_load_ema, cap, alive)
        live = proj[alive]
        mean = np.add.reduce(live) / live.size  # ``live.mean()``, minus its wrapper
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
        pick = destination_picker(self, dest, state, cfg)
        # Group constraints bind only wider than one chunk: a single chunk's
        # only member sits on its source, which is no underloaded candidate.
        grouped = state.group_width > 1
        pos = candidate_positions(dest, state.num_osds) if grouped else None
        # Destinations already claimed this round, per placement group (keyed
        # by its first member): chunk_owner only changes when the engine
        # applies the moves, so two same-group chunks selected in one round
        # would otherwise not see each other's landing spots.
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
            order = self.chunk_order(mine, state)
            if grouped:
                members, owners = state.group_owners(order)
            for i, chunk in enumerate(order):
                if budget <= 0 or proj[src] <= high:
                    break
                keep = proj[dest] < mean
                if not keep.any():
                    break
                if grouped:
                    group = int(members[i, 0])
                    hit = pos[[*owners[i], *claimed.get(group, ())]]
                    keep[hit[hit < dest.size]] = False
                    if not keep.any():
                        # Every underloaded OSD already holds (or was just
                        # claimed for) a member of this chunk's placement
                        # group; the next chunk may differ.
                        continue
                dst, terms, scores = pick(proj, keep)
                heat = state.chunk_heat[chunk]
                # A chunk's load lands scaled by the destination's capacity
                # (cap == 1.0 everywhere on a healthy cluster, so these
                # divisions are exact no-ops there).  Never move load onto an
                # OSD that would end up hotter than the source it came from.
                heat_dst = heat / cap[dst]
                if proj[dst] + heat_dst >= proj[src]:
                    continue
                if emit is not None:
                    emit(int(chunk), int(src), dst, dest, keep, terms, scores)
                if grouped:
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

    The scoring shape CMT established, factored so the zoo shares it: the
    projected load of each candidate is normalized by the mean over *alive*
    OSDs (cluster-wide, never the candidate subset, so a drive's score is
    independent of who else is a candidate), then

      * :meth:`load_terms` maps that normalized load to one or more score
        terms, and
      * :meth:`static_destination_terms` appends terms that do not depend on
        projected load at all (wear, wear-out risk) -- computed once per
        scorer.

    Load terms fold first, static terms after, in insertion order.
    """

    def load_terms(
        self, load_norm: np.ndarray, state: ClusterState, cfg: SimConfig
    ) -> dict[str, np.ndarray]:
        """Score terms from the normalized projected load, in a fresh dict."""
        return {"load": load_norm}

    def static_destination_terms(
        self, candidates: np.ndarray, state: ClusterState, cfg: SimConfig
    ) -> dict[str, np.ndarray]:
        """Load-independent score terms, aligned with ``candidates``."""
        return {}

    def scorer(self, candidates, state, cfg):
        static = self.static_destination_terms(candidates, state, cfg)
        alive_ids = np.flatnonzero(state.osd_alive)

        def score(proj):
            load = proj[candidates]
            mean = np.add.reduce(proj[alive_ids]) / alive_ids.size if alive_ids.size else 0.0
            if mean > 0:
                load = load / mean
            terms = self.load_terms(load, state, cfg)
            terms.update(static)
            return terms

        return score
