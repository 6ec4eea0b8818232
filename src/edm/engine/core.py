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
     the epoch boundary: topology events first (``add`` grows the cluster
     by cold drives, ``drain`` marks an OSD), then fault events (``fail``
     / ``slow`` / ``hiccup``), then endurance wear-outs at the rated P/E
     budget, each batch applied whole before its bursts.  Every departure
     -- drain, fail, wear-out -- obeys one survivor-floor rule
     (:func:`~edm.faults.departure_room`) and re-places the leaving OSD's
     chunks through the active policy's destination scoring
     (:func:`replace_dead_chunks`); a drain's OSD then leaves.  Each fired
     event fans out to recorders via ``on_topology`` or ``on_fault`` (the
     service recorder discards a drained OSD's queue there, uncounted as
     ``service_lost_work``).
  2. one fused kernel call (see :mod:`edm.engine.kernels`): routing
     bincounts, wear accrual, and the heat/load EMA updates, with per-run
     scratch buffers; a rated run (``cfg.endurance``) then folds the wear
     delta into the per-OSD wear-rate EWMA behind CMT's wear-out term
  3. with a service model (``cfg.service``), one epoch of each OSD's
     bounded queue against its routed arrivals, stepped by the run's
     :class:`~edm.service.ServiceRuntime` -- a recorder that owns the
     queues, charged with migration work through the ``on_move`` hook --
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
"request" only ever exists as a unit inside a counts vector.  The service
step keeps per epoch only queue admission; its latencies and depth
aggregates are built once per block of epochs (each epoch still summed on
its own), and latencies are binned per OSD run in blocks of runs.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from edm.config import SimConfig, rng_seed_sequence
from edm.endurance import EnduranceTracker
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
from edm.telemetry.recorder import EpochStats, Recorder
from edm.workloads import make_workload, traffic


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
    forbid: np.ndarray | None = None,
    emit=None,
) -> np.ndarray:
    """Greedy assignment one chunk at a time, hottest first.

    One :func:`~edm.policies.base.destination_picker` serves the burst: its
    scorer (static terms frozen) scores all of ``alive_ids`` per chunk and
    the chunk's keep-mask subsets it, bit-identical to scoring the subset.
    ``forbid`` (redundant configs) holds, per chunk, the owners of its group
    members; one matrix serves the burst because ``chunk_owner`` is frozen
    until :func:`apply_migrations` and no two burst chunks share a group.
    ``emit(chunk, dst, candidates, terms, scores)`` explains each pick.
    """
    pick = destination_picker(policy, alive_ids, state, cfg)
    keep = None
    if forbid is not None:
        m = alive_ids.size
        pos = candidate_positions(alive_ids, state.num_osds)
        # One spare trailing column absorbs owners that are not candidates.
        keep = np.ones((order.size, m + 1), dtype=bool)
        keep[np.arange(order.size)[:, None], pos[forbid]] = False
        keep = keep[:, :m]
        stuck = ~keep.any(axis=1)
        if stuck.any():
            chunk = int(order[np.argmax(stuck)])
            raise RuntimeError(
                f"chunk {chunk} of placement group "
                f"{int(state.chunk_group[chunk])} has no constraint-"
                f"satisfying destination among {m} surviving OSDs"
            )
    explain = emit is not None
    cap = state.osd_capacity
    dsts = np.empty(order.size, dtype=np.int64)
    for k, chunk in enumerate(order):
        row = None if keep is None else keep[k]
        dst, terms, scores = pick(proj, row, explain)
        if explain:
            emit(int(chunk), dst, alive_ids if row is None else alive_ids[row], terms, scores)
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
    candidate set from scratch.  Redundant configs forbid, per
    chunk, every OSD holding a member of its placement group; the
    redundancy and service recorders account a dead OSD's burst as
    *reconstruction* reads of the surviving group members.  A drain
    (``dead_osd`` still alive) stays a plain group-constrained evacuation.
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
    forbid = None
    if state.chunk_group is not None:
        # Owners of each chunk's group members; ids past the last chunk
        # clip onto it, a member of the same (trailing, narrower) group.
        w = state.group_width
        members = (order // w * w)[:, None] + np.arange(w)
        forbid = state.chunk_owner[np.minimum(members, state.num_chunks - 1)]
    relay = None if emit is None else lambda c, *pick: emit(c, int(dead_osd), *pick)
    dsts = _assign_sequential(order, proj, alive_ids, policy, state, cfg, forbid, relay)
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
            timeline = Timeline(p["timeline"], p["endurance"].default) if p["timeline"] else None
            endurance = EnduranceTracker(p["endurance"], cfg) if p["endurance"] else None
            if endurance is not None:
                endurance.attach(state)
            # Layers that only account ride the observer hooks.
            service = ServiceRuntime(p["service"], cfg) if p["service"] else None
            redundancy = RedundancyRuntime(p["redundancy"], cfg) if p["redundancy"] else None
            layers = tuple(rt for rt in (service, redundancy) if rt is not None)
            self._endurance, self._service = endurance, service
            # Topology steps first, so faults and endurance see this epoch's
            # grown (or drained) cluster.
            self._boundary = [
                (f"simulate.{layer}", partial(timeline.step, layer=layer), hook)
                for layer, hook in (("topology", "on_topology"), ("faults", "on_fault"))
                if p[layer]
            ]
            if endurance is not None:
                self._boundary.append(("simulate.endurance", endurance.step, "on_fault"))
            self._kernel = EpochKernel(cfg)
            self._acc = MetricsAccumulator(layers)
            self._recorders = tuple(recorders)
            # Every hook reaches every observer, except that the run's own
            # service steps under its own span before the others' on_epoch.
            self._epoch_observers = (self._acc, *self._recorders)
            self._observers = observers = (*layers, *self._epoch_observers)
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
            self._stats = EpochStats()
            self._load = np.zeros(cfg.num_osds)
            self._draws = traffic(workload, cfg.epochs)

    def _emitter(self, trigger: str):
        def emit(chunk, src, dst, candidates, terms, scores):
            decision = Decision(
                epoch=int(self.state.epoch),
                trigger=trigger,
                policy=self.cfg.policy,
                chunk=int(chunk),
                src=int(src),
                dst=int(dst),
                candidates=tuple(int(c) for c in candidates),
                terms={k: tuple(float(x) for x in v) for k, v in terms.items()},
                scores=tuple(float(s) for s in scores),
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
        for span, step, hook in self._boundary:
            with tr.span(span):
                for event in step(state, epoch):
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
                        getattr(rec, hook)(state, event, moved)
        with tr.span("simulate.kernel"):
            # Fused epoch math: routing bincounts, wear accrual, heat/load
            # EMAs -- one kernel call on preallocated scratch.
            self._load = load = self._kernel.epoch_update(state, counts, writes)
            if self._endurance is not None:
                # Fold this epoch's wear delta (routing writes plus any
                # migration wear applied since the last update) into the
                # per-OSD wear-rate EWMA before observers and policies look.
                self._endurance.update_rate(state)
        stats = self._stats
        if self._service is not None:
            with tr.span("simulate.service"):
                # Advance every OSD's queue by one epoch of service against
                # this epoch's routed arrivals (the kernel's load vector is
                # exactly the per-OSD request bincount); latencies and depth
                # aggregates are accounted a block of epochs at a time.
                self._service.step(state, load)
        with tr.span("simulate.observers"):
            stats.epoch = epoch
            stats.requests = int(np.add.reduce(counts))  # ``counts.sum()``, minus its wrapper
            stats.writes = int(np.add.reduce(writes))
            for rec in self._epoch_observers:
                rec.on_epoch(state, load, stats)
        if (epoch + 1) % cfg.migrate_interval == 0:
            with tr.span("simulate.migration"):
                moves = self.policy.select(state, cfg, self._emit["threshold"])
                applied = apply_migrations(state, moves, cfg, "threshold", observers)
                for rec in observers:
                    rec.on_migration(state, applied, stats)

    def close(self) -> None:
        """Close this run's traffic iterator, reaping its producer if any."""
        self._draws.close()

    def finalize(self) -> dict:
        """Close the traffic, validate the state, and return the metrics dict."""
        self.close()
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
    epoch and migration round but never perturb the simulation itself, so a
    run's metrics are bit-identical with or without them.  Each recorder's
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
