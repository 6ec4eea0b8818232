"""Per-chunk reference implementations the vectorized engine is pinned to.

These are the straightforward one-chunk-at-a-time versions of three engine
paths, kept here as independent oracles for the differential tests:

  * :func:`assign_reference` -- re-placement, plain or group-constrained:
    each chunk's candidates filtered with ``np.isin`` against its group's
    current owners, then scored from scratch (:func:`reference_pick`);
  * :func:`select_reference` -- threshold selection with per-chunk candidate
    filtering and per-pick scoring;
  * :func:`reconstruction_reference` -- reconstruction read counting, one
    lost chunk at a time;
  * :func:`move_charge_reference` -- the service work a batch of moves
    charges, reconstruction reads included, one move at a time.

The engine versions (``edm.engine.core._assign_sequential``,
``ThresholdPolicy.select``, ``RedundancyRuntime.on_move``,
``ServiceRuntime.on_move``) must match these bit-for-bit.
"""

import numpy as np

from edm.faults import effective_load
from edm.policies.base import EMPTY_MOVES, sum_terms


def group_members(state, chunk):
    """Chunk ids sharing ``chunk``'s placement group (including itself).

    Groups are consecutive id ranges of ``state.group_width`` chunks (the
    last group may be narrower when the chunk count is not a multiple).
    """
    w = state.group_width
    lo = (int(chunk) // w) * w
    return np.arange(lo, min(lo + w, state.num_chunks), dtype=np.int64)


def group_constrained(candidates, state, chunk):
    """Drop candidates already holding a member of ``chunk``'s group (on a
    plain cluster, ``chunk``'s own owner)."""
    owners = state.chunk_owner[group_members(state, chunk)]
    return candidates[~np.isin(candidates, owners)]


def reference_pick(policy, candidates, proj, state, cfg):
    """``(dst, terms, scores)``: a fresh scorer over exactly ``candidates``,
    folded, first minimum -- no frozen terms, no masking."""
    terms = policy.scorer(candidates, state, cfg)(proj)
    scores = sum_terms(terms)
    return int(candidates[np.argmin(scores)]), terms, scores


def assign_reference(order, proj, alive_ids, policy, state, cfg, emit=None):
    """One pick per chunk over its own constrained candidate set.

    Takes ``_assign_sequential``'s arguments, so it can stand in for it in a
    whole run; each chunk's group constraint is recomputed from ``state``.
    Mutates ``proj`` like the engine does;
    ``emit(chunk, dst, candidates, terms, scores)`` reports each explained
    pick.
    """
    cap = state.osd_capacity
    dsts = np.empty(order.size, dtype=np.int64)
    for k, chunk in enumerate(order):
        cand = group_constrained(alive_ids, state, int(chunk))
        if cand.size == 0:
            raise RuntimeError(f"chunk {chunk} has no constraint-satisfying destination")
        dst, terms, scores = reference_pick(policy, cand, proj, state, cfg)
        if emit is not None:
            emit(int(chunk), dst, cand, terms, scores)
        dsts[k] = dst
        proj[dst] += state.chunk_heat[chunk] / cap[dst]
    return dsts


def select_reference(policy, state, cfg, emit=None):
    """``ThresholdPolicy`` selection, recomputing candidates and scores per chunk."""
    alive = state.osd_alive
    cap = state.osd_capacity
    if not alive.any():
        return EMPTY_MOVES
    proj = effective_load(state.osd_load_ema, cap, alive)
    mean = proj[alive].mean()
    if mean <= 0:
        return EMPTY_MOVES
    high = mean * (1.0 + cfg.overload_tolerance)
    overloaded = np.flatnonzero((proj > high) & alive)
    if overloaded.size == 0:
        return EMPTY_MOVES
    eligible = state.eligible_mask(cfg)
    budget = cfg.max_migrations_per_interval
    moves = []
    w = state.group_width
    claimed = {}  # group id (chunk // w) -> destinations claimed this round
    for src in overloaded[np.argsort(-proj[overloaded])]:
        if budget <= 0:
            break
        mine = np.flatnonzero((state.chunk_owner == src) & eligible)
        if mine.size == 0:
            continue
        for chunk in policy.chunk_order(mine, state):
            if budget <= 0 or proj[src] <= high:
                break
            under = np.flatnonzero((proj < mean) & alive & ~state.osd_draining)
            if under.size == 0:
                break
            under = group_constrained(under, state, chunk)
            taken = claimed.get(int(chunk) // w)
            if taken:
                under = under[~np.isin(under, taken)]
            if under.size == 0:
                continue
            dst, terms, scores = reference_pick(policy, under, proj, state, cfg)
            heat = state.chunk_heat[chunk]
            heat_dst = heat / cap[dst]
            if proj[dst] + heat_dst >= proj[src]:
                continue
            if emit is not None:
                emit(int(chunk), int(src), dst, under, terms, scores)
            claimed.setdefault(int(chunk) // w, []).append(dst)
            moves.append((int(chunk), dst))
            proj[src] -= heat / cap[src]
            proj[dst] += heat_dst
            budget -= 1
    if not moves:
        return EMPTY_MOVES
    return np.asarray(moves, dtype=np.int64)


def rebuild_sources(state, chunk, reads_per_loss):
    """``(owners read, reads needed)`` to rebuild one lost ``chunk``: the
    first surviving peers of its group, in chunk-id order."""
    members = group_members(state, int(chunk))
    peers = members[members != chunk]
    needed = min(reads_per_loss, int(peers.size))
    owners = state.chunk_owner[peers]
    return owners[state.osd_alive[owners]][:needed], needed


def reconstruction_reference(runtime, state, lost):
    """``RedundancyRuntime.on_move`` on a dead OSD's ``lost`` chunks, one
    lost chunk at a time."""
    for chunk in lost:
        srcs, needed = rebuild_sources(state, chunk, runtime.scheme.reads_per_loss)
        if srcs.size < needed:
            runtime.data_loss_chunks += 1
        runtime.reconstruction_reads += int(srcs.size)
    runtime.reconstruction_chunks += int(len(lost))


def move_charge_reference(backlog, state, chunks, dst, cost, reads_per_loss=0):
    """``ServiceRuntime.on_move``'s pending pool after charging ``backlog``
    for moving ``chunks`` to ``dst``, one move at a time: with
    ``reads_per_loss`` (a dead OSD's burst on a redundant cluster) the
    rebuild reads first, then both ends of every copy, dead sources
    exempt."""
    n = state.num_osds
    backlog = backlog.copy()
    if reads_per_loss:
        read_work = np.zeros(n)
        for chunk in chunks:
            for osd in rebuild_sources(state, chunk, reads_per_loss)[0]:
                read_work[osd] += 1
        if read_work.any():
            backlog += read_work * cost
    work = np.zeros(n)
    for chunk, d in zip(chunks, dst):
        work[d] += 1
        src = state.chunk_owner[chunk]
        if state.osd_alive[src]:
            work[src] += 1
    backlog += work * cost
    return backlog
