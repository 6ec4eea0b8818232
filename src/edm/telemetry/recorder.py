"""Observer hooks for the simulation engine.

``simulate(cfg, recorders=...)`` -- a :class:`~edm.engine.core.Run` stepped
through every epoch, each :meth:`~edm.engine.core.Run.step` drawing the
run's own traffic, or :meth:`~edm.engine.core.Run.advance` fed traffic by
its caller -- drives every recorder through the same eight hooks:

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
    on_epoch(state, load, stats)    every epoch, after routing/wear/EMA updates
                                    and *before* that epoch's migration round
    on_migration(state, applied, stats)
                                    after each migration interval fires
    finalize(state, final_load)     once, after the last epoch

The engine's scalar metrics dict is produced by a recorder too
(:class:`edm.engine.metrics.MetricsAccumulator`), as are the layers that
steer no decision (:class:`edm.service.ServiceRuntime`,
:class:`edm.redundancy.RedundancyRuntime`), so all plug in through one
surface without touching the hot path.

Hot-path contract: ``load`` and ``state`` arrays are the engine's live
buffers, not copies.  A recorder must copy anything it wants to keep
(``TimeSeriesRecorder`` writes into preallocated buffers for this reason)
and must never mutate them.  ``stats`` is a single :class:`EpochStats`
instance reused across epochs -- read it during the call, don't store it.
Per-epoch work should be those copies and counters: a reduction over the
OSD axis (a CoV, a mean) is cheaper done for a block of buffered rows at
once (:func:`mean_std` takes a block), as ``MetricsAccumulator``,
``TimeSeriesRecorder`` and the service layer do.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class EpochStats:
    """Mutable per-epoch scalars, updated in place by the engine each epoch.

    Only what the engine has at hand: the service layer's per-epoch latency
    and queue-depth aggregates are reduced a block of epochs at a time, so
    they are not ready here; a recorder reads them at finalize through
    :meth:`Recorder.on_service`.
    """

    epoch: int = 0
    requests: int = 0  # total requests routed this epoch
    writes: int = 0    # write requests among them


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

    def on_epoch(self, state: "ClusterState", load: "np.ndarray", stats: EpochStats) -> None:
        """Called every epoch with that epoch's per-OSD load vector."""

    def on_migration(self, state: "ClusterState", applied: int, stats: EpochStats) -> None:
        """Called after a migration interval applies ``applied`` moves."""

    def finalize(self, state: "ClusterState", final_load: "np.ndarray") -> Any:
        """Called once after the last epoch; return this recorder's product."""
        return None
