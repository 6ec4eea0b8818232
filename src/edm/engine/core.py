"""Vectorized simulation core.

:class:`Run` advances one configuration one epoch at a time;
:func:`simulate` is a ``Run``, a loop over :meth:`Run.step`, and
:meth:`Run.finalize`.  :meth:`Run.advance` takes the epoch's per-chunk
access/write counts from its caller, and :meth:`Run.step` first draws them
(one multinomial + binomial draw) from :func:`edm.workloads.traffic`,
inline or by a forked producer ahead of the engine -- the same draws in the
same order either way.  One epoch is a handful of O(num_chunks) array ops:

  1. step the departure timeline (:class:`~edm.faults.Timeline`, the fault
     and topology plans compiled into one event tuple at config time) at
     the epoch boundary, one layer at a time: topology events first
     (``add`` grows the cluster by cold drives, ``drain`` marks an OSD),
     then fault events (``fail`` / ``slow`` / ``hiccup``), then endurance
     wear-outs at the rated P/E budget, each batch applied whole before
     its bursts.  Every departure -- drain, fail, wear-out -- obeys one
     survivor-floor rule (:func:`~edm.faults.departure_room`) and re-places
     the leaving OSD's chunks through the active policy's destination
     scoring (:func:`replace_dead_chunks`); a drain's OSD then leaves.
     Each fired event reaches every recorder through ``on_event`` (the
     service recorder discards a drained OSD's queue there, uncounted as
     ``service_lost_work``).
  2. one fused kernel call (see :mod:`edm.engine.kernels`): routing
     bincounts, wear accrual, a rated run's (``cfg.endurance``) wear-rate
     EWMA behind CMT's wear-out term, and the heat/load EMA updates, with
     per-run scratch buffers
  3. buffer the epoch's load and wear rows and its request and write totals
     in the run's one open block of epochs; every recorder sees the block
     through ``on_block`` when it is cut: before a timeline batch (or a
     wear-out) changes the cluster, before each migration round, every
     ``EPOCH_BLOCK`` epochs and at finalize.  With a service model
     (``cfg.service``), the run's :class:`~edm.service.ServiceRuntime` -- a
     recorder that owns each OSD's bounded queue, charged with migration
     work through the ``on_move`` hook -- steps the block's epochs first,
     and the metrics gain a p50/p99/p999 latency block
  4. every ``migrate_interval`` epochs, let the policy pick migrations and
     apply them as a batch index assignment

With a redundancy scheme (``cfg.redundancy``), chunks form placement groups
(replica or erasure-code stripes, see :mod:`edm.redundancy`) whose members
must live on pairwise-distinct OSDs: initial placement is round-robin, every
destination pick is group-constrained, and a failed OSD's chunks are
*reconstructed* -- reads counted by the run's
:class:`~edm.redundancy.RedundancyRuntime` and charged to surviving group
members' service queues, the rebuild write charged as migration wear.

An unconfigured layer is skipped entirely, so its runs stay bit-identical
to the engine without it.  There is no per-request Python loop anywhere; a
"request" only ever exists as a unit inside a counts vector.  Per epoch the
engine only routes and buffers rows: every reduction over the OSD axis
(load CoV, peak ratio, the service's latencies and depth aggregates)
runs once per block, each epoch's row still reduced on its own, and
latencies are binned per OSD run in blocks of runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from edm.config import SimConfig, rng_seed_sequence
from edm.engine.kernels import EpochKernel
from edm.engine.metrics import MetricsAccumulator
from edm.engine.state import ClusterState, init_state
from edm.faults import Timeline, effective_load, leave
from edm.obs.decisions import TRIGGERS, Decision
from edm.obs.trace import NULL_TRACER, Tracer
from edm.policies import MigrationPolicy, get_policy
from edm.policies.base import candidate_positions, destination_picker
from edm.redundancy import RedundancyRuntime
from edm.service import ServiceRuntime
from edm.telemetry.recorder import EpochBlock, Recorder
from edm.workloads import make_workload, traffic

# Epochs per block at most (see Run._cut).  The run's service builds every
# latency a block accepted at once: up to ~64K floats for 8 epochs of the
# 20-OSD, 8192-request composed bench run, +1.4 MB (3%) peak RSS.  64 epochs
# grew it by 12 MB and were no faster.
EPOCH_BLOCK = 8


def apply_migrations(
    state: ClusterState,
    moves: np.ndarray,
    cfg: SimConfig,
    trigger: str = "threshold",
    recorders: Sequence[Recorder] = (),
) -> int:
    """Apply policy-selected moves; returns how many were actually applied.

    ``moves`` is an int array of shape (k, 2): (chunk_id, dst_osd).  Duplicate
    chunk entries keep only the first; no-op and out-of-range moves are
    dropped, so a buggy policy can never lose or duplicate a chunk.  The
    moves kept reach every recorder's ``on_move`` under ``trigger`` (one of
    :data:`~edm.obs.decisions.TRIGGERS`) while their sources still own them.
    """
    moves = np.asarray(moves, dtype=np.int64).reshape(-1, 2)
    if moves.size == 0:
        return 0
    _, first = np.unique(moves[:, 0], return_index=True)
    moves = moves[np.sort(first)]
    chunk, dst = moves[:, 0], moves[:, 1]
    ok = (
        (chunk >= 0)
        & (chunk < state.num_chunks)
        & (dst >= 0)
        & (dst < state.num_osds)
        & (state.chunk_owner[chunk] != dst)
    )
    chunk, dst = chunk[ok], dst[ok]
    if chunk.size == 0:
        return 0
    src = state.chunk_owner[chunk]
    for rec in recorders:
        rec.on_move(state, chunk, src, dst, trigger)
    state.chunk_owner[chunk] = dst.astype(np.int32)
    # Migration rewrites the whole chunk on the destination SSD.  Bincount
    # the per-destination move counts and accrue wear in one vectorized add:
    # measurably faster than np.add.at's per-element scatter when a fault
    # burst lands hundreds of chunks on a few survivors.
    per_move = cfg.migration_write_cost * cfg.wear_per_write
    state.osd_wear += np.bincount(dst, minlength=state.num_osds) * per_move
    state.chunk_last_migrated[chunk] = state.epoch
    state.migrations_total += int(chunk.size)
    return int(chunk.size)


def _assign_sequential(
    order: np.ndarray,
    proj: np.ndarray,
    alive_ids: np.ndarray,
    policy: MigrationPolicy,
    state: ClusterState,
    cfg: SimConfig,
    emit=None,
) -> np.ndarray:
    """Greedy assignment one chunk at a time, hottest first.

    One :func:`~edm.policies.base.destination_picker` serves the burst: its
    scorer (static terms frozen) scores all of ``alive_ids`` per chunk and
    the chunk's keep-mask subsets it, bit-identical to scoring the subset.
    Each chunk's keep row drops the owners of its placement group's members
    (:meth:`~edm.engine.state.ClusterState.group_owners`); one matrix serves
    the burst because ``chunk_owner`` is frozen until
    :func:`apply_migrations` and no two burst chunks share a group.  On a
    plain cluster the only member is the chunk itself, on the leaving OSD,
    which is no candidate: every row keeps every candidate.
    ``emit(chunk, dst, candidates, keep, terms, scores)`` explains each
    pick over ``alive_ids``, of which the chunk's own are ``keep``.
    """
    pick = destination_picker(policy, alive_ids, state, cfg)
    m = alive_ids.size
    pos = candidate_positions(alive_ids, state.num_osds)
    # One spare trailing column absorbs owners that are not candidates.
    keep = np.ones((order.size, m + 1), dtype=bool)
    keep[np.arange(order.size)[:, None], pos[state.group_owners(order)[1]]] = False
    keep = keep[:, :m]
    stuck = ~keep.any(axis=1)
    if stuck.any():
        raise RuntimeError(
            f"chunk {int(order[np.argmax(stuck)])} has no constraint-satisfying "
            f"destination among {m} surviving OSDs: each holds a member of "
            f"its placement group"
        )
    cap = state.osd_capacity
    dsts = np.empty(order.size, dtype=np.int64)
    for k, chunk in enumerate(order):
        dst, terms, scores = pick(proj, keep[k])
        if emit is not None:
            emit(int(chunk), dst, alive_ids, keep[k], terms, scores)
        dsts[k] = dst
        proj[dst] += state.chunk_heat[chunk] / cap[dst]
    return dsts


def replace_dead_chunks(
    state: ClusterState,
    dead_osd: int,
    policy: MigrationPolicy,
    cfg: SimConfig,
    trigger: str = "fault",
    emit=None,
    recorders: Sequence[Recorder] = (),
) -> int:
    """Re-place every chunk of a failed (or draining) OSD; returns how many moved.

    Destinations come from the active policy's ``scorer`` over the
    surviving OSDs (so CMT steers the re-placement burst toward low-wear
    drives while HDF/CDF/baseline spread purely by load), hottest chunks
    placed first against a projected effective-load vector.  The burst is
    forced -- it ignores the per-interval migration budget and the cooldown
    mask -- but is charged as ordinary migration wear through
    :func:`apply_migrations`, which hands it to ``recorders`` under
    ``trigger`` (the departure: ``"fault"``, ``"wearout"`` or ``"drain"``).

    Every burst -- plain or redundant, explained (``emit`` set, see
    :mod:`edm.obs.decisions`) or not -- runs through
    :func:`_assign_sequential`, bit-identical to scoring each chunk's own
    candidate set from scratch, which excludes every OSD holding a member
    of the chunk's placement group.  On a redundant cluster the redundancy
    and service recorders account a dead OSD's burst as *reconstruction*
    reads of the surviving group members.  A drain (``dead_osd`` still
    alive) stays a plain group-constrained evacuation.
    """
    chunks = np.flatnonzero(state.chunk_owner == dead_osd)
    if chunks.size == 0:
        return 0
    # Draining OSDs are migration sources only -- a drive being evacuated
    # (including ``dead_osd`` itself during a drain, still alive at this
    # point) never receives re-placed chunks.
    alive_ids = np.flatnonzero(state.osd_alive & ~state.osd_draining)
    if alive_ids.size == 0:
        raise RuntimeError(
            f"OSD {dead_osd} left the cluster but no OSD survives to take "
            f"its {chunks.size} chunks"
        )
    proj = effective_load(state.osd_load_ema, state.osd_capacity, state.osd_alive)
    order = chunks[np.argsort(-state.chunk_heat[chunks], kind="stable")]
    relay = None if emit is None else lambda c, *pick: emit(c, int(dead_osd), *pick)
    dsts = _assign_sequential(order, proj, alive_ids, policy, state, cfg, relay)
    moves = np.column_stack((order, dsts))
    return apply_migrations(state, moves, cfg, trigger, recorders)


# Which departure events re-place the leaving OSD's chunks, under which
# decision trigger.  A drain's OSD is still alive while its chunks stream
# off; it leaves afterwards.
_DEPARTURES = {"drain": "drain", "fail": "fault", "wearout": "wearout"}


class Run:
    """One configuration, advanced one epoch at a time.

    ``recorders`` and ``tracer`` are as for :func:`simulate`.
    :meth:`advance` simulates the next epoch on traffic the caller supplies;
    :meth:`step` draws this run's own next epoch first, from
    :func:`edm.workloads.traffic` (lazy: a producer, if any, forks on the
    first draw, so a run driven only through :meth:`advance` never forks).
    :meth:`finalize` closes that traffic, validates the state and returns the
    metrics dict; :meth:`close` only closes the traffic.
    """

    def __init__(
        self,
        cfg: SimConfig,
        recorders: Sequence[Recorder] = (),
        tracer: Tracer | None = None,
    ):
        self.cfg = cfg
        self.epoch = 0  # the next epoch to simulate
        self._tr = tr = tracer if tracer is not None else NULL_TRACER
        with tr.span("simulate.setup"):
            wl_ss, _reserved = rng_seed_sequence(cfg).spawn(2)
            workload = make_workload(cfg, np.random.default_rng(wl_ss))
            self.policy = get_policy(cfg.policy)
            self.state = state = init_state(cfg)
            p = cfg.plans
            self._timeline = Timeline(p["timeline"], p["endurance"].default)
            # Topology steps first, so faults and endurance see this epoch's
            # grown (or drained) cluster; an unconfigured layer never steps.
            self._boundary = tuple(
                (layer, f"simulate.{layer}")
                for layer in ("topology", "faults", "endurance")
                if p[layer]
            )
            # Layers that only account ride the observer hooks.
            service = ServiceRuntime(p["service"], cfg) if p["service"] else None
            redundancy = RedundancyRuntime(p["redundancy"], cfg) if p["redundancy"] else None
            layers = tuple(rt for rt in (service, redundancy) if rt is not None)
            self._service = service
            self._kernel = EpochKernel(cfg)
            self._acc = MetricsAccumulator(layers)
            self._recorders = tuple(recorders)
            self._observers = observers = (*layers, self._acc, *self._recorders)
            # Every hook reaches every observer, except that the run's own
            # service steps under its own span before the others' on_block.
            self._block_observers = tuple(rec for rec in observers if rec is not service)
            # Decision provenance is opt-in: only recorders that *override*
            # on_decision flip selection/re-placement onto the explained path
            # (bit-identical picks, see edm.obs.decisions); without one, every
            # emitter is None and every call site takes its plain branch.
            self._deciders = [
                rec for rec in observers
                if type(rec).on_decision is not Recorder.on_decision
            ]
            self._emit = {t: self._emitter(t) if self._deciders else None for t in TRIGGERS}
            for rec in observers:
                rec.on_run_start(cfg, state)
                if service is not None:
                    rec.on_service(service)
            self._load = np.zeros(cfg.num_osds)
            # The open block: load and wear rows, then request and write
            # totals, of the epochs since the last cut (widened on opening
            # after a scale-out).
            self._rows = np.empty((2, EPOCH_BLOCK, cfg.num_osds))
            self._totals = np.empty((2, EPOCH_BLOCK), dtype=np.int64)
            self._fill = 0
            self._draws = traffic(workload, cfg.epochs)

    def _emitter(self, trigger: str):
        def emit(chunk, src, dst, candidates, keep, terms, scores):
            # The pick scored every candidate; the decision reports its own.
            decision = Decision(
                epoch=int(self.state.epoch),
                trigger=trigger,
                policy=self.cfg.policy,
                chunk=int(chunk),
                src=int(src),
                dst=int(dst),
                candidates=tuple(int(c) for c in candidates[keep]),
                terms={k: tuple(float(x) for x in v[keep]) for k, v in terms.items()},
                scores=tuple(float(s) for s in scores[keep]),
            )
            for rec in self._deciders:
                rec.on_decision(self.state, decision)

        return emit

    def step(self) -> None:
        """Draw this run's next epoch of traffic and :meth:`advance` on it.

        When a forked producer draws the traffic, ``simulate.workload_gen``
        times the engine's *wait* for the produced epoch, not the draw.
        """
        with self._tr.span("simulate.workload_gen"):
            counts, writes = next(self._draws)
        self.advance(counts, writes)

    def advance(self, counts: np.ndarray, writes: np.ndarray) -> None:
        """Simulate the next epoch on per-chunk float64 ``counts``/``writes``."""
        cfg, state, tr, observers = self.cfg, self.state, self._tr, self._observers
        epoch = self.epoch
        if epoch >= cfg.epochs:
            raise RuntimeError(f"run of {cfg.epochs} epochs has no epoch {epoch}")
        state.epoch, self.epoch = epoch, epoch + 1
        for layer, span in self._boundary:
            with tr.span(span):
                # Any change to the cluster cuts the open block first, so
                # the next block starts on the changed cluster.
                for event in self._timeline.step(state, epoch, layer, self._cut):
                    moved = 0
                    trigger = _DEPARTURES.get(event.kind)
                    if trigger is not None:
                        # Every departure takes the same re-placement burst
                        # through the active policy.
                        moved = replace_dead_chunks(
                            state, event.osd, self.policy, cfg, trigger,
                            self._emit[trigger], observers,
                        )
                        if event.kind == "drain":
                            leave(state, event.osd)
                    for rec in observers:
                        rec.on_event(state, event, moved)
        with tr.span("simulate.kernel"):
            # Fused epoch math: routing bincounts, wear accrual, a rated
            # run's wear-rate EWMA, heat/load EMAs -- one kernel call on
            # preallocated scratch.
            self._load = load = self._kernel.epoch_update(state, counts, writes)
        with tr.span("simulate.observers"):
            k = self._fill
            if k == 0:
                self._start = epoch
                if self._rows.shape[2] != state.num_osds:
                    self._rows = np.empty((2, self._totals.shape[1], state.num_osds))
            self._rows[0, k] = load
            self._rows[1, k] = state.osd_wear
            # ``counts.sum()`` and ``writes.sum()``, minus their wrappers.
            self._totals[0, k] = np.add.reduce(counts)
            self._totals[1, k] = np.add.reduce(writes)
            self._fill = k + 1
        migrate = (epoch + 1) % cfg.migrate_interval == 0
        if migrate or self._fill == self._totals.shape[1]:
            self._cut()
        if migrate:
            with tr.span("simulate.migration"):
                moves = self.policy.select(state, cfg, self._emit["threshold"])
                apply_migrations(state, moves, cfg, "threshold", observers)

    def _cut(self) -> None:
        """Hand the open block to every observer, the run's own service first
        under its own span.  Nothing has changed the alive set, capacities or
        width since the block opened, so the live state's are the block's."""
        k, self._fill = self._fill, 0
        if k == 0:
            return
        state, tr = self.state, self._tr
        block = EpochBlock(
            range(self._start, self._start + k), self._rows[0, :k], self._rows[1, :k],
            self._totals[0, :k], self._totals[1, :k], state.osd_alive, state.osd_capacity,
        )
        if self._service is not None:
            with tr.span("simulate.service"):
                # Every OSD's queue, stepped through the block's epochs on
                # their routed loads, then accounted in one pass.
                self._service.on_block(state, block)
        with tr.span("simulate.observers"):
            for rec in self._block_observers:
                rec.on_block(state, block)

    def close(self) -> None:
        """Close this run's traffic iterator, reaping its producer if any."""
        self._draws.close()

    def finalize(self) -> dict:
        """Close the traffic, validate the state, and return the metrics dict."""
        self.close()
        self._cut()
        tr, state, load = self._tr, self.state, self._load
        with tr.span("simulate.finalize"):
            state.validate()
            if self._service is not None:
                self._service.validate(state)
            metrics = self._acc.finalize(state, load)
            for rec in self._recorders:
                rec.finalize(state, load)
        if tr.enabled:
            metrics["timings"] = tr.summary()
        return metrics


def simulate(
    cfg: SimConfig,
    recorders: Sequence[Recorder] = (),
    tracer: Tracer | None = None,
) -> dict:
    """Run one configuration to completion and return its metrics dict.

    A :class:`Run` stepped through every epoch, then finalized.

    ``recorders`` are observer hooks (see :mod:`edm.telemetry.recorder`)
    driven alongside the built-in :class:`MetricsAccumulator`; they see every
    epoch (a block at a time) and every move but never perturb the simulation
    itself, so a run's metrics are bit-identical with or without them.  Each recorder's
    ``finalize`` is invoked after the last epoch; its product is read off the
    recorder (e.g. ``TimeSeriesRecorder.series``), not from this return value.

    ``tracer`` (an :class:`edm.obs.Tracer`) times the run's phases -- workload
    generation, the fused epoch kernel (routing + heat/wear EMA updates),
    observer fan-out, migration selection -- as ``simulate.*`` spans; when
    enabled, the aggregated span summary is attached to the returned
    metrics under ``"timings"``.  The default is the shared
    :data:`~edm.obs.trace.NULL_TRACER`, whose spans are no-ops, so untraced
    runs stay on the bare hot path.  Timings never feed back into the
    simulation: metrics (minus the ``"timings"`` key) are bit-identical with
    or without tracing.
    """
    run = Run(cfg, recorders, tracer)
    try:
        for _ in range(cfg.epochs):
            run.step()
    finally:
        run.close()
    return run.finalize()
