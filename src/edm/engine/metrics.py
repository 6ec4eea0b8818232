"""Metric accumulation for a simulation run.

Paper metrics:
  * load-balance degree -- coefficient of variation of per-OSD load
    (std / mean), averaged over epochs; 0 is perfectly balanced.
  * wear spread -- (max - min) erase count across SSDs at end of run,
    plus the CoV of wear; endurance-aware migration should shrink both.
  * migration cost -- total data moved (chunks x chunk size).

Faulted, rated, serviced, elastic and redundant runs add their layer's
block (service and redundancy blocks come from their recorders'
``metrics_block``).  Every key the final dict may hold has a row, with its
help text, in :mod:`edm.catalog`; ``finalize`` raises on a key without one.

``MetricsAccumulator`` is the engine's always-on :class:`~edm.telemetry.Recorder`:
it rides the same observer hooks as user-supplied telemetry, and its
``finalize`` return value is what ``simulate`` returns.  All values in the
final dict are plain Python ints/floats/lists so results pickle stably and
compare exactly across processes.
"""

from __future__ import annotations

import numpy as np

from edm.catalog import KEYS
from edm.config import SimConfig
from edm.engine.state import ClusterState
from edm.telemetry.recorder import EpochBlock, Recorder, mean_std


class MetricsAccumulator(Recorder):
    def __init__(self, layers=()):
        # The run's accounting recorders (ServiceRuntime, RedundancyRuntime),
        # in catalogue order: each contributes its metrics block.
        self.cfg: SimConfig | None = None
        self._layers = layers

    def on_run_start(self, cfg: SimConfig, state: ClusterState) -> None:
        self.cfg = cfg
        self._cov_sum = 0.0
        self._peak_ratio_sum = 0.0
        self._epochs = 0
        self._total_requests = 0
        self._total_writes = 0
        # Degraded-mode tracking (only exercised when cfg.faults is set, so
        # healthy runs keep their historical metrics dict bit-for-bit).
        self._faulted = bool(cfg.faults)
        self._fault_counts = {"fail": 0, "slow": 0, "hiccup": 0}
        self._replaced_total = 0
        self._replacement_burst_max = 0
        self._cov_alive_sum = 0.0
        self._recover_baseline = 0.0
        self._recover_start: int | None = None
        self._recovery_epochs = -1
        # Endurance tracking (only surfaced when cfg.endurance is set).
        self._endured = bool(cfg.endurance)
        self._wearouts = 0
        self._wearout_replaced = 0
        self._first_wearout_epoch = -1
        # Topology tracking (only surfaced when cfg.topology is set).
        self._topology = bool(cfg.topology)
        self._drain_moves = 0

    def on_event(self, state: ClusterState, event, moved: int) -> None:
        kind = event.kind
        if kind == "drain":
            self._drain_moves += moved
        elif kind == "wearout":
            self._wearouts += 1
            self._wearout_replaced += moved
            if self._first_wearout_epoch < 0:
                self._first_wearout_epoch = event.epoch
        elif kind != "add":  # the state holds the added drives (see finalize)
            self._fault_counts[kind] += 1
        if kind == "fail":
            self._replaced_total += moved
            self._replacement_burst_max = max(self._replacement_burst_max, moved)
            # Arm the recovery clock: how long until per-epoch load CoV over
            # the survivors returns to (near) its pre-failure running mean.
            self._recover_baseline = self._cov_sum / max(self._epochs, 1)
            self._recover_start = state.epoch
            self._recovery_epochs = -1

    def on_block(self, state: ClusterState, block: EpochBlock) -> None:
        """Add the block's load CoV and peak rows to the running sums, and on
        a faulted or elastic run the survivor CoV, and step the recovery
        clock: each row's own reduction, added in epoch order."""
        self._epochs += len(block)
        self._total_requests += int(np.add.reduce(block.requests))
        self._total_writes += int(np.add.reduce(block.writes))
        cov = block.cov
        # An idle epoch's CoV and peak ratio are 0.0: they add nothing.
        for row_cov, peak in zip(cov.tolist(), block.peak.tolist()):
            self._cov_sum += row_cov
            self._peak_ratio_sum += peak
        if not (self._faulted or self._topology):
            return
        # ``*_alive`` CoV: over the block's survivors, whose ids take keeps
        # in a C-contiguous block (each row reduces as one vector).
        idx = block.alive_ids
        if idx.size == block.width:
            cov_alive = cov  # nobody dead: the same rows
        elif idx.size:
            am, asd = mean_std(block.load.take(idx, axis=1))
            cov_alive = np.divide(asd, am, out=np.zeros_like(am), where=am > 0)
        else:
            cov_alive = np.zeros(len(block))
        # Recovered once survivor CoV is back within 10% of the pre-failure
        # mean (epsilon keeps a zero baseline reachable).
        armed = self._recover_start is not None and self._recovery_epochs < 0
        threshold = max(self._recover_baseline * 1.1, self._recover_baseline + 1e-9)
        for epoch, row_cov in zip(block.epochs, cov_alive.tolist()):
            self._cov_alive_sum += row_cov
            if armed and row_cov <= threshold:
                self._recovery_epochs = epoch - self._recover_start
                armed = False

    def finalize(self, state: ClusterState, final_load: np.ndarray) -> dict:
        cfg = self.cfg
        if cfg is None:
            raise RuntimeError("finalize() before on_run_start()")
        wear = state.osd_wear
        alive = state.osd_alive
        wear_mean = float(wear.mean())
        epochs = max(self._epochs, 1)
        final_mean = float(final_load.mean())
        out = {
            "workload": cfg.workload,
            "policy": cfg.policy,
            "num_osds": cfg.num_osds,
            "skew": cfg.skew,
            "seed": cfg.seed,
            "epochs": self._epochs,
            "total_requests": self._total_requests,
            "total_writes": self._total_writes,
            # Load balance
            "load_cov_mean": self._cov_sum / epochs,
            "load_peak_ratio_mean": self._peak_ratio_sum / epochs,
            "load_cov_final": float(final_load.std() / final_mean) if final_mean > 0 else 0.0,
            # Wear / endurance
            "wear_mean": wear_mean,
            "wear_max": float(wear.max()),
            "wear_min": float(wear.min()),
            "wear_spread": float(wear.max() - wear.min()),
            "wear_cov": float(wear.std() / wear_mean) if wear_mean > 0 else 0.0,
            "per_osd_wear": [float(w) for w in wear],
            # Migration cost
            "migrations_total": int(state.migrations_total),
            "migration_cost_mb": float(state.migrations_total * cfg.chunk_size_mb),
        }
        # Each scenario block is present only when its layer is configured,
        # so a run without the layer returns bit for bit the dict an engine
        # without that layer returned.
        if self._faulted:
            # ``*_alive`` variants exclude dead OSDs (a dead OSD's frozen
            # zero load would otherwise inflate CoV forever).
            aw = wear[alive]
            awm = float(aw.mean()) if aw.size else 0.0
            out["faults"] = cfg.faults
            out["fault_failures"] = self._fault_counts["fail"]
            out["fault_slow_events"] = self._fault_counts["slow"]
            out["fault_hiccups"] = self._fault_counts["hiccup"]
            out["replacement_moves_total"] = int(self._replaced_total)
            out["replacement_burst_max"] = int(self._replacement_burst_max)
            out["fault_recovery_epochs"] = int(self._recovery_epochs)
            out["load_cov_alive_mean"] = self._cov_alive_sum / epochs
            out["wear_cov_alive"] = float(aw.std() / awm) if awm > 0 else 0.0
            out["osds_alive_final"] = int(alive.sum())
        if self._endured:
            # Lifetime stats are alive-masked: a worn-out OSD's zero
            # remaining life describes a drive that already failed.
            # Topology-added drives carry no rating (infinite remaining life)
            # and are excluded, else their inf poisons mean/std.
            rem = state.remaining_life()[alive]
            rem = rem[np.isfinite(rem)]
            rem_mean = float(rem.mean()) if rem.size else 0.0
            pred = state.predicted_wearout_epochs()[alive]
            pred_min = float(pred.min()) if pred.size else np.inf
            out["endurance"] = cfg.endurance
            out["remaining_life_min"] = float(rem.min()) if rem.size else 0.0
            out["remaining_life_mean"] = rem_mean
            out["remaining_life_cov"] = float(rem.std() / rem_mean) if rem_mean > 0 else 0.0
            out["predicted_first_wearout_epoch"] = (
                int(state.epoch + pred_min) if np.isfinite(pred_min) else -1
            )
            out["wearouts_total"] = int(self._wearouts)
            out["first_wearout_epoch"] = int(self._first_wearout_epoch)
            out["wearout_replacements_total"] = int(self._wearout_replaced)
            out["osds_alive_final"] = int(alive.sum())
        if self._topology:
            # "Cold" drives are the ones scale-out added, after the initial
            # ones (adds only append; every drained OSD stays marked): their
            # wear uptake and final load share quantify how hard policies
            # lean on fresh low-wear capacity.
            cold = np.arange(cfg.num_osds, state.num_osds)
            out["topology"] = cfg.topology
            out["osds_total_final"] = int(state.num_osds)
            out["osds_added_total"] = int(cold.size)
            out["osds_drained_total"] = int(np.count_nonzero(state.osd_draining))
            out["drain_moves_total"] = int(self._drain_moves)
            out["load_cov_alive_mean"] = self._cov_alive_sum / epochs
            if cold.size:
                cw = wear[cold]
                out["cold_wear_mean"] = float(cw.mean())
                out["cold_wear_max"] = float(cw.max())
                total_load = float(final_load.sum())
                out["cold_load_share_final"] = (
                    float(final_load[cold].sum()) / total_load
                    if total_load > 0
                    else 0.0
                )
            out["osds_alive_final"] = int(alive.sum())
        for layer in self._layers:
            out.update(layer.metrics_block())
        unknown = [key for key in out if key not in KEYS]
        if unknown:
            raise RuntimeError(f"metrics keys with no row in edm.catalog: {', '.join(unknown)}")
        return out
