"""Observer hooks for the simulation engine.

``simulate(cfg, recorders=...)`` -- a :class:`~edm.engine.core.Run` stepped
through every epoch, each :meth:`~edm.engine.core.Run.step` drawing the
run's own traffic, or :meth:`~edm.engine.core.Run.advance` fed traffic by
its caller -- drives every recorder through the same seven hooks:

    on_run_start(cfg, state)        once, after state init, before epoch 0
    on_topology(state, event, moved)
                                    when a topology event fires (scale-out /
                                    drain), after the add's growth or the
                                    drain's evacuation + retire, before that
                                    epoch's fault step and routing
    on_fault(state, event, replaced)
                                    when a fault event fires (failure /
                                    slow-disk / hiccup), after any failure
                                    re-placement, before that epoch's routing
    on_decision(state, decision)    per destination pick, when *any* recorder
                                    overrides this hook (opt-in: overriding it
                                    is what switches the engine onto the
                                    explained selection path; see
                                    edm.obs.decisions)
    on_epoch(state, load, stats)    every epoch, after routing/wear/EMA updates
                                    and *before* that epoch's migration round
    on_migration(state, applied, stats)
                                    after each migration interval fires
    finalize(state, final_load)     once, after the last epoch

The engine's scalar metrics dict is produced by a recorder too
(:class:`edm.engine.metrics.MetricsAccumulator`), so telemetry, fault
injection, and future observers all plug in through one surface without
touching the hot path.

Hot-path contract: ``load`` and ``state`` arrays are the engine's live
buffers, not copies.  A recorder must copy anything it wants to keep
(``TimeSeriesRecorder`` writes into preallocated buffers for this reason)
and must never mutate them.  ``stats`` is a single :class:`EpochStats`
instance reused across epochs -- read it during the call, don't store it.
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
    from edm.topology import TopologyEvent


def mean_std(x: np.ndarray) -> tuple[np.float64, np.float64]:
    """``(x.mean(), x.std())`` of a non-empty 1-D float64 array, bit for bit.

    The reductions numpy's ``mean``/``std`` perform, in the same order,
    without their Python-level wrappers -- observers call this every epoch.
    """
    mean = np.add.reduce(x) / x.size
    dev = x - mean
    return mean, np.sqrt(np.add.reduce(dev * dev) / x.size)


@dataclass
class EpochStats:
    """Mutable per-epoch scalars, updated in place by the engine each epoch."""

    epoch: int = 0
    requests: int = 0  # total requests routed this epoch
    writes: int = 0    # write requests among them
    # Service-model scalars, filled by ServiceRuntime.step when a service
    # spec is configured; all 0.0 otherwise (requests have no duration).
    lat_mean: float = 0.0          # mean finite latency of this epoch's accepted requests
    queue_depth_mean: float = 0.0  # mean per-OSD queue depth after service
    queue_depth_cov: float = 0.0   # CoV of queue depth across OSDs


class Recorder:
    """No-op base class defining the observer protocol.

    Subclass and override only the hooks you need; the engine calls every
    hook on every recorder, so the defaults must stay cheap no-ops.
    """

    def on_run_start(self, cfg: "SimConfig", state: "ClusterState") -> None:
        """Called once before the first epoch; allocate buffers here."""

    def on_topology(self, state: "ClusterState", event: "TopologyEvent", moved: int) -> None:
        """Called when a topology event fires; ``moved`` counts chunks
        evacuated off a drained OSD (0 for scale-out events).  For adds the
        state has already grown -- the newest ``event.count`` ids are the
        cold drives; for drains the target is already retired."""

    def on_fault(self, state: "ClusterState", event: "FaultEvent", replaced: int) -> None:
        """Called when a fault event fires; ``replaced`` counts chunks
        re-placed off a failed OSD (0 for slow-disk / hiccup events)."""

    def on_decision(self, state: "ClusterState", decision: "Decision") -> None:
        """Called per destination pick with its score decomposition.

        Opt-in: the engine detects recorders that *override* this hook and
        only then routes selection and re-placement through the explained
        (bit-identical) path; runs without such a recorder never pay for
        decision capture.  See :mod:`edm.obs.decisions`.
        """

    def on_epoch(self, state: "ClusterState", load: "np.ndarray", stats: EpochStats) -> None:
        """Called every epoch with that epoch's per-OSD load vector."""

    def on_migration(self, state: "ClusterState", applied: int, stats: EpochStats) -> None:
        """Called after a migration interval applies ``applied`` moves."""

    def finalize(self, state: "ClusterState", final_load: "np.ndarray") -> Any:
        """Called once after the last epoch; return this recorder's product."""
        return None
