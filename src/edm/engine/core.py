"""Vectorized simulation core.

One epoch is a handful of O(num_chunks) array ops:

  1. take the epoch's per-chunk access/write counts (one multinomial +
     binomial draw) from :func:`edm.workloads.traffic`, which draws them
     inline or has a forked producer draw them ahead of the engine -- the
     same draws in the same order either way
  2. one fused kernel call (see :mod:`edm.engine.kernels`): routing
     bincounts, wear accrual, and the heat/load EMA updates, with per-run
     scratch buffers
  3. every ``migrate_interval`` epochs, let the policy pick migrations and
     apply them as a batch index assignment

With a fault plan configured (``cfg.faults``), epoch boundaries additionally
step the :class:`~edm.faults.FaultRuntime` before routing: failures trigger
a re-placement burst of the dead OSD's chunks through the active policy's
destination scoring, slow-disk and hiccup events scale per-OSD capacity, and
every fired event fans out to recorders via ``on_fault``.  Healthy configs
skip this path entirely.

With an endurance model configured (``cfg.endurance``), every OSD carries a
rated P/E budget: epoch boundaries also step the
:class:`~edm.endurance.EnduranceTracker`, failing any OSD whose consumed
cycles reached its rating through the same re-placement and ``on_fault``
path (event kind ``"wearout"``), and each epoch's wear delta feeds the
per-OSD wear-rate EWMA behind CMT's predicted-wear-out destination term.
Unrated configs skip this path entirely and stay bit-identical to the
endurance-unaware engine.

With a topology plan configured (``cfg.topology``), the cluster is elastic:
the :class:`~edm.topology.TopologyRuntime` steps first at each epoch
boundary (before faults and endurance, so both see the grown arrays).
``add`` events append cold drives of the event's device class -- zero wear,
zero load, per-band capacity / service rate / rated P/E -- and the
metrics accumulator's load buffer widens once per event; ``drain`` events
gracefully evacuate the target's chunks through the active policy's
destination scoring (trigger ``"drain"`` in decision provenance) and then
retire it, discarding its queue and pending migration work without
counting them as ``service_lost_work``.  Every fired event fans out to
recorders via ``on_topology``.  Static configs skip this path entirely and
stay bit-identical to the topology-unaware engine.

With a redundancy scheme configured (``cfg.redundancy``), chunks form
placement groups (replica or erasure-code stripes, see
:mod:`edm.redundancy`) whose members must live on pairwise-distinct OSDs:
initial placement is round-robin, every destination pick is
group-constrained, and a failed OSD's chunks are *reconstructed* -- reads
charged to surviving group members' service queues, the rebuild write
charged as migration wear -- instead of merely re-placed.  A constrained
burst builds one group-owner matrix and one frozen-term scorer, then masks
each chunk's candidates out of a single score vector per pick; the
reconstruction charge is one pass over the same member matrix.  Plain
configs carry no group state and skip every constraint check.

With a service model configured (``cfg.service``), every OSD additionally
carries a service rate and a bounded queue: after each kernel call the
:class:`~edm.service.ServiceRuntime` steps the per-OSD queue recursion
against the epoch's routed arrivals, migrations charge work into the queues
(drained over a cooldown window), and the run's metrics gain a
p50/p99/p999 latency block.  Unserviced configs skip this path entirely and
stay bit-identical to the service-unaware engine.

There is no per-request Python loop anywhere; a "request" only ever exists
as a unit inside a counts vector.  Service latencies are built once per
epoch, for their sum, and binned per OSD run in blocks of runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from edm.config import SimConfig, rng_seed_sequence
from edm.endurance import EnduranceModel, EnduranceTracker
from edm.engine.kernels import EpochKernel
from edm.engine.metrics import MetricsAccumulator
from edm.engine.state import ClusterState, init_state
from edm.faults import FaultPlan, FaultRuntime, effective_load
from edm.obs.decisions import Decision
from edm.obs.trace import NULL_TRACER, Tracer
from edm.policies import MigrationPolicy, get_policy
from edm.policies.base import candidate_positions, destination_picker
from edm.redundancy import RedundancyRuntime, RedundancyScheme
from edm.service import ServiceModel, ServiceRuntime
from edm.telemetry.recorder import EpochStats, Recorder
from edm.topology import TopologyPlan, TopologyRuntime
from edm.workloads import make_workload, traffic


def apply_migrations(state: ClusterState, moves: np.ndarray, cfg: SimConfig) -> int:
    """Apply policy-selected moves; returns how many were actually applied.

    ``moves`` is an int array of shape (k, 2): (chunk_id, dst_osd).  Duplicate
    chunk entries keep only the first; no-op and out-of-range moves are
    dropped, so a buggy policy can never lose or duplicate a chunk.
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
    if cfg.service:
        # Each move charges service work to both sides of the copy -- the
        # source streams the chunk out, the destination writes it -- into
        # the pending pool the ServiceRuntime drains over the cooldown
        # window.  Dead sources are exempt: a re-placement burst reads from
        # a corpse, which has no queue to occupy.  Must happen before the
        # owner reassignment below, which is what loses the source ids.
        src = state.chunk_owner[chunk].astype(np.int64)
        work = np.bincount(dst, minlength=state.num_osds).astype(np.float64)
        src_alive = src[state.osd_alive[src]]
        if src_alive.size:
            work += np.bincount(src_alive, minlength=state.num_osds)
        state.osd_mig_backlog += work * cfg.service_migration_cost
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
    emit=None,
    redundancy: RedundancyRuntime | None = None,
) -> int:
    """Re-place every chunk of a failed (or draining) OSD; returns how many moved.

    Destinations come from the active policy's ``scorer`` over the
    surviving OSDs (so CMT steers the re-placement burst toward low-wear
    drives while HDF/CDF/baseline spread purely by load), hottest chunks
    placed first against a projected effective-load vector.  The burst is
    forced -- it ignores the per-interval migration budget and the cooldown
    mask -- but is charged as ordinary migration wear through
    :func:`apply_migrations`.

    Every burst -- plain or redundant, explained (``emit`` set, see
    :mod:`edm.obs.decisions`) or not -- runs through
    :func:`_assign_sequential`, bit-identical to scoring each chunk's own
    candidate set from scratch.  Redundant configs forbid, per
    chunk, every OSD holding a member of its placement group; when
    ``redundancy`` (the run's :class:`~edm.redundancy.RedundancyRuntime`)
    is given and ``dead_osd`` is actually dead, the burst is charged as
    *reconstruction*: surviving group members are read into the service
    queues on top of the ordinary migration-write wear.  A drain
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
    if redundancy is not None and not state.osd_alive[dead_osd]:
        # Charge the read side of the rebuild before ownership moves (the
        # write side is ordinary migration wear via apply_migrations).
        redundancy.on_reconstruction(state, order)
    moves = np.column_stack((order, dsts))
    return apply_migrations(state, moves, cfg)


def simulate(
    cfg: SimConfig,
    recorders: Sequence[Recorder] = (),
    tracer: Tracer | None = None,
) -> dict:
    """Run one configuration to completion and return its metrics dict.

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
    metrics under ``"timings"``.  When a forked producer draws the traffic
    (see :mod:`edm.workloads.producer`), ``simulate.workload_gen`` times the
    engine's *wait* for each produced epoch, not the draw itself.  The
    default is the shared :data:`~edm.obs.trace.NULL_TRACER`, whose spans are
    no-ops, so untraced runs stay on the bare hot path.  Timings never feed
    back into the simulation: metrics (minus the ``"timings"`` key) are
    bit-identical with or without tracing.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    with tr.span("simulate.setup"):
        ss = rng_seed_sequence(cfg)
        wl_ss, _reserved = ss.spawn(2)
        workload = make_workload(cfg, np.random.default_rng(wl_ss))
        policy = get_policy(cfg.policy)
        state = init_state(cfg)
        plan = FaultPlan.parse(cfg.faults, num_osds=cfg.num_osds)
        faults = FaultRuntime(plan) if plan else None
        model = EnduranceModel.parse(cfg.endurance, num_osds=cfg.num_osds)
        endurance = EnduranceTracker(model, cfg) if model else None
        if endurance is not None:
            endurance.attach(state)
        svc_model = ServiceModel.parse(cfg.service, num_osds=cfg.num_osds)
        service = ServiceRuntime(svc_model, cfg) if svc_model else None
        if service is not None:
            service.attach(state)
        topo_plan = TopologyPlan.parse(cfg.topology, num_osds=cfg.num_osds)
        topology = (
            TopologyRuntime(topo_plan, service=svc_model, endurance=model)
            if topo_plan
            else None
        )
        scheme = RedundancyScheme.parse(cfg.redundancy, num_osds=cfg.num_osds)
        redundancy = RedundancyRuntime(scheme, cfg) if scheme else None
        kernel = EpochKernel(cfg)
        acc = MetricsAccumulator(service=service, redundancy=redundancy)
        observers: tuple[Recorder, ...] = (acc, *recorders)
        # Decision provenance is opt-in: only recorders that *override*
        # on_decision flip selection/re-placement onto the explained path
        # (bit-identical picks, see edm.obs.decisions); without one, both
        # emitters stay None and every call site takes its historical branch.
        decision_observers = tuple(
            rec for rec in observers
            if type(rec).on_decision is not Recorder.on_decision
        )

        def _decision_emitter(trigger: str):
            if not decision_observers:
                return None

            def emit(chunk, src, dst, candidates, terms, scores):
                decision = Decision(
                    epoch=int(state.epoch),
                    trigger=trigger,
                    policy=cfg.policy,
                    chunk=int(chunk),
                    src=int(src),
                    dst=int(dst),
                    candidates=tuple(int(c) for c in candidates),
                    terms={k: tuple(float(x) for x in v) for k, v in terms.items()},
                    scores=tuple(float(s) for s in scores),
                )
                for rec in decision_observers:
                    rec.on_decision(state, decision)

            return emit

        emit_threshold = _decision_emitter("threshold")
        emit_fault = _decision_emitter("fault")
        emit_wearout = _decision_emitter("wearout")
        emit_drain = _decision_emitter("drain")
        for rec in observers:
            rec.on_run_start(cfg, state)
        stats = EpochStats()
        draws = traffic(workload, cfg.epochs)

    load = np.zeros(cfg.num_osds)
    try:
        for epoch in range(cfg.epochs):
            state.epoch = epoch
            if topology is not None:
                with tr.span("simulate.topology"):
                    # Topology steps first so faults/endurance/service all see
                    # the grown (or drained) cluster this epoch.
                    for event in topology.step(state, epoch):
                        moved = 0
                        if event.kind == "add":
                            if endurance is not None:
                                endurance.grow(state)
                        else:  # drain: evacuate gracefully, then retire
                            moved = replace_dead_chunks(
                                state, event.osd, policy, cfg, emit=emit_drain,
                                redundancy=redundancy,
                            )
                            topology.retire(state, event.osd)
                        for rec in observers:
                            rec.on_topology(state, event, moved)
            if faults is not None:
                with tr.span("simulate.faults"):
                    for event in faults.step(state, epoch):
                        replaced = 0
                        if event.kind == "fail":
                            replaced = replace_dead_chunks(
                                state, event.osd, policy, cfg, emit=emit_fault,
                                redundancy=redundancy,
                            )
                        for rec in observers:
                            rec.on_fault(state, event, replaced)
            if endurance is not None:
                with tr.span("simulate.endurance"):
                    # Wear-outs ride the fault machinery: same re-placement burst
                    # through the active policy, same on_fault observer fan-out.
                    for event in endurance.step(state, epoch):
                        replaced = replace_dead_chunks(
                            state, event.osd, policy, cfg, emit=emit_wearout,
                            redundancy=redundancy,
                        )
                        for rec in observers:
                            rec.on_fault(state, event, replaced)
            with tr.span("simulate.workload_gen"):
                counts, writes = next(draws)
            with tr.span("simulate.kernel"):
                # Fused epoch math: routing bincounts, wear accrual, heat/load
                # EMAs -- one kernel call on preallocated scratch.
                load = kernel.epoch_update(state, counts, writes)
                if endurance is not None:
                    # Fold this epoch's wear delta (routing writes plus any
                    # migration wear applied since the last update) into the
                    # per-OSD wear-rate EWMA before observers and policies look.
                    endurance.update_rate(state)

            if service is not None:
                with tr.span("simulate.service"):
                    # Advance every OSD's queue by one epoch of service against
                    # this epoch's routed arrivals (the kernel's load vector is
                    # exactly the per-OSD request bincount) and fold accepted
                    # requests' latencies into the run histogram; fills the
                    # stats latency/queue fields observers read below.
                    service.step(state, load, stats)

            with tr.span("simulate.observers"):
                stats.epoch = epoch
                stats.requests = int(counts.sum())
                stats.writes = int(writes.sum())
                for rec in observers:
                    rec.on_epoch(state, load, stats)

            if (epoch + 1) % cfg.migrate_interval == 0:
                with tr.span("simulate.migration"):
                    moves = policy.select(state, cfg, emit_threshold)
                    applied = apply_migrations(state, moves, cfg)
                    for rec in observers:
                        rec.on_migration(state, applied, stats)
    finally:
        draws.close()

    with tr.span("simulate.finalize"):
        state.validate()
        metrics = acc.finalize(state, load)
        for rec in recorders:
            rec.finalize(state, load)
    if tr.enabled:
        metrics["timings"] = tr.summary()
    return metrics
