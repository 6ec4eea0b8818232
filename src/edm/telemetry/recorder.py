"""Observer hooks for the simulation engine.

``simulate(cfg, recorders=...)`` -- a :class:`~edm.engine.core.Run` stepped
through every epoch, each :meth:`~edm.engine.core.Run.step` drawing the
run's own traffic, or :meth:`~edm.engine.core.Run.advance` fed traffic by
its caller -- drives every recorder through the same seven hooks:

    on_run_start(cfg, state)        once, after state init, before epoch 0
    on_service(service)             once, after on_run_start, on a run with a
                                    service model: its ServiceRuntime, whose
                                    per-epoch series are complete by finalize
    on_event(state, event, moved)   when a departure-timeline event fires
                                    (add / drain, fail / slow / hiccup,
                                    wearout; in that layer order within an
                                    epoch), after its growth or its
                                    departure's re-placement burst, before
                                    that epoch's routing
    on_decision(state, decision)    per destination pick, when *any* recorder
                                    overrides this hook (opt-in: overriding it
                                    is what switches the engine onto the
                                    explained selection path; see
                                    edm.obs.decisions)
    on_move(state, chunks, src, dst, trigger)
                                    per batch of moves applied (a migration
                                    round, a departure's burst), before
                                    ownership changes
    on_block(state, block)          per EpochBlock: the epochs routed since
                                    the last cut, each after its routing,
                                    wear and EMA updates
    finalize(state, final_load)     once, after the last epoch

The engine cuts a block before any departure-timeline event changes the
cluster, before each migration round, every ``EPOCH_BLOCK`` epochs
(:mod:`edm.engine.core`) and at finalize, so a block's epochs share one
width, one alive set and one capacity vector, no move or event falls
between them, and every epoch lands in exactly one block, in order.  With
``EPOCH_BLOCK`` set to 1 a block is one epoch, delivered after its routing
and before its migration round.

The engine's scalar metrics dict is produced by a recorder too
(:class:`edm.engine.metrics.MetricsAccumulator`), as are the layers that
steer no decision (:class:`edm.service.ServiceRuntime`,
:class:`edm.redundancy.RedundancyRuntime`), so all plug in through one
surface without touching the hot path.

Hot-path contract: a block's rows and ``state``'s arrays are the engine's
live buffers, not copies, and the rows are reused for the next block.  A
recorder must copy anything it wants to keep (``TimeSeriesRecorder``
writes into preallocated buffers for this reason) and must never mutate
them.  A reduction over the OSD axis (a CoV, a mean) is cheaper done for a
block of rows at once (:func:`mean_std` takes a block); the block computes
its load rows' mean, std, CoV and peak ratio once, for every reader.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from edm.config import SimConfig
    from edm.engine.state import ClusterState
    from edm.faults import FaultEvent
    from edm.obs.decisions import Decision
    from edm.service import ServiceRuntime
    from edm.topology import TopologyEvent


def mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x.mean(-1), x.std(-1))`` of a float64 array, bit for bit.

    The reductions numpy's ``mean``/``std`` perform, in the same order,
    without their Python-level wrappers.  A 1-D ``x`` (non-empty) gives two
    scalars; a 2-D block whose rows are each contiguous (a C-ordered block,
    a slice of its leading columns, or ``take`` along axis 1 -- not a
    fancy index, which reorders the reduction) gives one pair per row,
    each row reduced exactly as the 1-D call on it would be.  Observers
    can so buffer epochs and reduce a block of them at once.
    """
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1) / n
    dev = x - mean[..., None]
    dev *= dev  # in place, as numpy's own ``std`` squares: one block-sized temporary
    return mean, np.sqrt(np.add.reduce(dev, axis=-1) / n)


class EpochBlock:
    """Consecutive epochs between two cuts, as :meth:`Recorder.on_block` sees them.

    Per-epoch rows, one per epoch of ``epochs`` (a ``range``): ``load`` and
    ``wear`` ``(k, width)`` -- the per-OSD requests routed that epoch and the
    cumulative wear after its routing -- and ``requests`` and ``writes``
    ``(k,)`` int64 totals.  Shared by every row: ``alive`` (bool mask) and
    ``capacity`` per OSD.  Computed at the cut, once for every reader:
    ``alive_ids``, and each load row's ``mean``, ``std``, ``cov`` (std /
    mean) and ``peak`` (max / mean), the last two 0 where the mean is not
    positive.
    """

    def __init__(self, epochs: range, load, wear, requests, writes, alive, capacity):
        self.epochs = epochs
        self.load = load
        self.wear = wear
        self.requests = requests
        self.writes = writes
        self.alive = alive
        self.capacity = capacity
        self.alive_ids = np.flatnonzero(alive)
        self.mean, self.std = mean, std = mean_std(load)
        ok = mean > 0
        self.cov = np.divide(std, mean, out=np.zeros_like(mean), where=ok)
        peak = np.maximum.reduce(load, axis=1)
        self.peak = np.divide(peak, mean, out=np.zeros_like(mean), where=ok)

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def width(self) -> int:
        return self.load.shape[1]


class Recorder:
    """No-op base class defining the observer protocol.

    Subclass and override only the hooks you need; the engine calls every
    hook on every recorder, so the defaults must stay cheap no-ops.
    """

    def on_run_start(self, cfg: "SimConfig", state: "ClusterState") -> None:
        """Called once before the first epoch; allocate buffers here."""

    def on_service(self, service: "ServiceRuntime") -> None:
        """Called after :meth:`on_run_start` when the run has a service
        model, with the run's :class:`~edm.service.ServiceRuntime`.  Its
        :meth:`~edm.service.ServiceRuntime.epoch_series` are complete by
        :meth:`finalize`."""

    def on_event(
        self, state: "ClusterState", event: "TopologyEvent | FaultEvent", moved: int
    ) -> None:
        """Called when a departure-timeline event fires; ``event.kind``
        tells which.  ``moved`` counts the chunks re-placed off the leaving
        OSD of a ``fail``, ``wearout`` or ``drain`` -- the batch
        :meth:`on_move` saw just before, or 0 with no batch when the OSD
        held none -- and is 0 for ``add``, ``slow`` and ``hiccup``.  For
        an add the state has already grown -- the newest ``event.count``
        ids are the cold drives; a departed OSD has already left."""

    def on_decision(self, state: "ClusterState", decision: "Decision") -> None:
        """Called per destination pick with its score decomposition.

        Opt-in: the engine detects recorders that *override* this hook and
        only then routes selection and re-placement through the explained
        (bit-identical) path; runs without such a recorder never pay for
        decision capture.  See :mod:`edm.obs.decisions`.
        """

    def on_move(self, state: "ClusterState", chunks, src, dst, trigger: str) -> None:
        """Called before ``chunks`` move from ``src`` to ``dst`` (aligned
        arrays, no duplicates or no-ops), for one of the
        :data:`~edm.obs.decisions.TRIGGERS`: a migration round's
        ``"threshold"``, or the departure that forced the burst."""

    def on_block(self, state: "ClusterState", block: EpochBlock) -> None:
        """Called per block of epochs, in epoch order (see the module
        docstring for where blocks are cut)."""

    def finalize(self, state: "ClusterState", final_load: "np.ndarray") -> Any:
        """Called once after the last epoch; return this recorder's product."""
        return None
