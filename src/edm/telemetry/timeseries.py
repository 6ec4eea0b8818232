"""Per-epoch time-series capture and serialization.

``TimeSeriesRecorder`` accumulates the paper's longitudinal evaluation
curves -- per-OSD load, load CoV, peak ratio, cumulative per-OSD wear, wear
CoV, migrations per interval, the alive-masked remaining rated lifetime
(min/mean; ``+inf`` without an endurance model), and the per-epoch service
scalars (queue depth mean/CoV, mean latency; all 0.0 without a service
model) -- into preallocated NumPy buffers, sampling
every ``record_every`` epochs.  ``finalize`` always captures the end-of-run
state (after the last migration round), so the final row matches the scalar
metrics dict exactly and ``migrations.sum()`` equals ``migrations_total``.

The product is a :class:`TimeSeries`: immutable arrays plus a JSON-able
``meta`` dict carrying the config identity (``cache_name``/``config_hash``),
with ``.npz`` (compact, lossless), JSON, and CSV exporters.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from edm.config import SimConfig, config_hash
from edm.telemetry.recorder import EpochStats, Recorder, mean_std
from edm.topology.spec import TopologyPlan

if TYPE_CHECKING:
    from edm.engine.state import ClusterState

# Bump when the TimeSeries array set or meta layout changes.
# 2: added per-sample ``alive`` (surviving-OSD count) and ``replacements``
#    (failure re-placement moves since the previous sample).
# 3: added the lifetime columns ``remaining_life_min`` / ``remaining_life_mean``
#    (alive-masked remaining rated life; ``+inf`` without an endurance model).
# 4: added the service columns ``queue_depth_mean`` / ``queue_depth_cov`` /
#    ``service_lat_mean`` (all 0.0 without a service model).
# 5: added ``osds_total`` (cluster size at each sample, elastic under a
#    topology plan) and the ``topology`` meta key; per-OSD columns are sized
#    to the plan's maximum cluster width, zero-filled before a drive joins.
SERIES_FORMAT_VERSION = 5

_ARRAY_FIELDS = (
    "epoch",
    "load",
    "load_cov",
    "load_peak_ratio",
    "wear",
    "wear_cov",
    "migrations",
    "alive",
    "replacements",
    "remaining_life_min",
    "remaining_life_mean",
    "queue_depth_mean",
    "queue_depth_cov",
    "service_lat_mean",
    "osds_total",
)

@dataclass(frozen=True)
class TimeSeries:
    """Sampled per-epoch series for one simulation run.

    ``T`` samples over ``N`` OSDs; ``wear`` is cumulative, ``migrations`` counts
    moves applied in the window ending at each sample (the last window extends
    to the end of the run).
    """

    meta: dict
    epoch: np.ndarray            # int64 [T], sampled epoch indices, increasing
    load: np.ndarray             # float64 [T, N], per-OSD load at each sample
    load_cov: np.ndarray         # float64 [T], std/mean of load
    load_peak_ratio: np.ndarray  # float64 [T], max/mean of load
    wear: np.ndarray             # float64 [T, N], cumulative erase-count units
    wear_cov: np.ndarray         # float64 [T], std/mean of wear
    migrations: np.ndarray       # int64 [T], moves applied since previous sample
    alive: np.ndarray            # int64 [T], surviving-OSD count at each sample
    replacements: np.ndarray     # int64 [T], failure re-placements since previous sample
    remaining_life_min: np.ndarray   # float64 [T], min remaining rated life over alive OSDs
    remaining_life_mean: np.ndarray  # float64 [T], mean remaining rated life over alive OSDs
    queue_depth_mean: np.ndarray     # float64 [T], mean per-OSD queue depth (0 without service)
    queue_depth_cov: np.ndarray      # float64 [T], CoV of queue depth across OSDs
    service_lat_mean: np.ndarray     # float64 [T], mean finite request latency per epoch
    osds_total: np.ndarray           # int64 [T], cluster size (incl. dead) at each sample

    @property
    def num_samples(self) -> int:
        return int(self.epoch.shape[0])

    @property
    def num_osds(self) -> int:
        return int(self.load.shape[1])

    def save_npz(self, path: str | os.PathLike) -> Path:
        """Write a compressed ``.npz`` atomically (temp file, then rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(
                    f,
                    meta=np.asarray(json.dumps(self.meta, sort_keys=True)),
                    **{k: getattr(self, k) for k in _ARRAY_FIELDS},
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return path

    @classmethod
    def load_npz(cls, path: str | os.PathLike) -> "TimeSeries":
        """Load a ``.npz`` series written in the current format.

        A file missing any current column (an older format) is rejected
        with the command that regenerates it.
        """
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta"][()]))
            missing = [k for k in _ARRAY_FIELDS if k not in npz.files]
            if missing:
                raise ValueError(
                    f"{path}: series written by format "
                    f"v{meta.get('format_version')} is missing {missing}; "
                    f"re-run `edm sweep --timeseries` to regenerate "
                    f"(current format v{SERIES_FORMAT_VERSION})"
                )
            arrays = {k: npz[k] for k in _ARRAY_FIELDS}
        return cls(meta=meta, **arrays)

    def to_json_dict(self) -> dict:
        """Plain-Python dict (meta + nested lists) for JSON serialization."""
        out: dict[str, Any] = {"meta": dict(self.meta)}
        for k in _ARRAY_FIELDS:
            out[k] = getattr(self, k).tolist()
        return out

    def save_json(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict()) + "\n")
        return path

    def save_csv(self, path: str | os.PathLike) -> Path:
        """One row per sample: scalar columns, then per-OSD load/wear columns."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        n = self.num_osds
        header = (
            ["epoch", "load_cov", "load_peak_ratio", "wear_cov", "migrations",
             "alive", "replacements", "remaining_life_min", "remaining_life_mean",
             "queue_depth_mean", "queue_depth_cov", "service_lat_mean",
             "osds_total"]
            + [f"load_osd{i}" for i in range(n)]
            + [f"wear_osd{i}" for i in range(n)]
        )
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for t in range(self.num_samples):
                w.writerow(
                    [
                        int(self.epoch[t]),
                        float(self.load_cov[t]),
                        float(self.load_peak_ratio[t]),
                        float(self.wear_cov[t]),
                        int(self.migrations[t]),
                        int(self.alive[t]),
                        int(self.replacements[t]),
                        float(self.remaining_life_min[t]),
                        float(self.remaining_life_mean[t]),
                        float(self.queue_depth_mean[t]),
                        float(self.queue_depth_cov[t]),
                        float(self.service_lat_mean[t]),
                        int(self.osds_total[t]),
                    ]
                    + [float(v) for v in self.load[t]]
                    + [float(v) for v in self.wear[t]]
                )
        return path


class TimeSeriesRecorder(Recorder):
    """Vectorized per-epoch series capture with downsampling.

    Samples epochs ``0, record_every, 2*record_every, ...`` plus the end-of-run
    state.  Buffers are preallocated at ``on_run_start`` (which also makes one
    instance reusable across runs), so the per-epoch cost on sampled epochs is
    a handful of slice assignments and on skipped epochs a single modulo.
    """

    def __init__(self, record_every: int = 1):
        if record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {record_every}")
        self.record_every = record_every
        self.series: TimeSeries | None = None
        self._cfg: SimConfig | None = None

    def on_run_start(self, cfg: SimConfig, state: "ClusterState") -> None:
        self._cfg = cfg
        self.series = None
        # One slot per sampled epoch plus one for the end-of-run snapshot.
        cap = (cfg.epochs + self.record_every - 1) // self.record_every + 1
        # Per-OSD buffers are sized to the topology plan's maximum cluster
        # width up front (== num_osds for static configs), so scale-out
        # never reallocates mid-run; columns of not-yet-added drives stay 0.
        n = TopologyPlan.parse(cfg.topology, num_osds=cfg.num_osds).max_osds(
            cfg.num_osds
        )
        self._epoch = np.zeros(cap, dtype=np.int64)
        self._load = np.zeros((cap, n))
        self._load_cov = np.zeros(cap)
        self._peak = np.zeros(cap)
        self._wear = np.zeros((cap, n))
        self._wear_cov = np.zeros(cap)
        self._migrations = np.zeros(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=np.int64)
        self._replacements = np.zeros(cap, dtype=np.int64)
        self._life_min = np.zeros(cap)
        self._life_mean = np.zeros(cap)
        self._qd_mean = np.zeros(cap)
        self._qd_cov = np.zeros(cap)
        self._lat_mean = np.zeros(cap)
        self._osds_total = np.zeros(cap, dtype=np.int64)
        self._i = 0
        self._window = 0       # moves applied since the last recorded sample
        self._repl_window = 0  # failure re-placements since the last sample
        # Latest per-epoch service scalars, tracked every epoch (not just
        # sampled ones) so the end-of-run row finalize() appends carries the
        # final epoch's values even when sampling skipped it.
        self._svc_last = (0.0, 0.0, 0.0)

    def on_epoch(self, state: "ClusterState", load: np.ndarray, stats: EpochStats) -> None:
        self._svc_last = (stats.queue_depth_mean, stats.queue_depth_cov, stats.lat_mean)
        if stats.epoch % self.record_every:
            return
        self._record(stats.epoch, load, state)

    def on_migration(self, state: "ClusterState", applied: int, stats: EpochStats) -> None:
        self._window += applied

    def on_fault(self, state: "ClusterState", event, replaced: int) -> None:
        self._repl_window += replaced

    def finalize(self, state: "ClusterState", final_load: np.ndarray) -> TimeSeries:
        cfg = self._cfg
        if cfg is None:
            raise RuntimeError("finalize() before on_run_start(); pass the recorder to simulate()")
        last = cfg.epochs - 1
        if self._i and self._epoch[self._i - 1] == last:
            # The last sample already landed on the final epoch, but migrations
            # (and their wear) from that epoch's interval fired *after* it was
            # recorded -- fold them in so the final row is truly end-of-run.
            i = self._i - 1
            self._migrations[i] += self._window
            self._window = 0
            self._replacements[i] += self._repl_window
            self._repl_window = 0
            self._wear[i, : state.osd_wear.size] = state.osd_wear
            wm = state.osd_wear.mean()
            self._wear_cov[i] = float(state.osd_wear.std() / wm) if wm > 0 else 0.0
            self._record_lifetime(i, state)
        else:
            self._record(last, final_load, state)
        i = self._i
        self.series = TimeSeries(
            meta={
                "format_version": SERIES_FORMAT_VERSION,
                "name": cfg.cache_name(),
                "config_hash": config_hash(cfg),
                "workload": cfg.workload,
                "policy": cfg.policy,
                "num_osds": cfg.num_osds,
                "skew": cfg.skew,
                "seed": cfg.seed,
                "epochs": cfg.epochs,
                "record_every": self.record_every,
                "chunk_size_mb": cfg.chunk_size_mb,
                "faults": cfg.faults,
                "endurance": cfg.endurance,
                "service": cfg.service,
                "topology": cfg.topology,
            },
            epoch=self._epoch[:i].copy(),
            load=self._load[:i].copy(),
            load_cov=self._load_cov[:i].copy(),
            load_peak_ratio=self._peak[:i].copy(),
            wear=self._wear[:i].copy(),
            wear_cov=self._wear_cov[:i].copy(),
            migrations=self._migrations[:i].copy(),
            alive=self._alive[:i].copy(),
            replacements=self._replacements[:i].copy(),
            remaining_life_min=self._life_min[:i].copy(),
            remaining_life_mean=self._life_mean[:i].copy(),
            queue_depth_mean=self._qd_mean[:i].copy(),
            queue_depth_cov=self._qd_cov[:i].copy(),
            service_lat_mean=self._lat_mean[:i].copy(),
            osds_total=self._osds_total[:i].copy(),
        )
        return self.series

    def _record_lifetime(self, i: int, state: "ClusterState") -> None:
        rem = state.remaining_life()[state.osd_alive]
        self._life_min[i] = rem.min() if rem.size else 0.0
        self._life_mean[i] = rem.mean() if rem.size else 0.0

    def _record(self, epoch: int, load: np.ndarray, state: "ClusterState") -> None:
        wear = state.osd_wear
        i = self._i
        self._epoch[i] = epoch
        # Partial-width assignment: under an elastic topology the live
        # arrays are narrower than the plan-width buffers until the last
        # scale-out fires (a full-width assignment when sizes match).
        self._load[i, : load.size] = load
        mean, std = mean_std(load)
        if mean > 0:
            self._load_cov[i] = std / mean
            self._peak[i] = load.max() / mean
        self._wear[i, : wear.size] = wear
        wm, wsd = mean_std(wear)
        if wm > 0:
            self._wear_cov[i] = wsd / wm
        self._migrations[i] = self._window
        self._window = 0
        self._alive[i] = int(state.osd_alive.sum())
        self._replacements[i] = self._repl_window
        self._repl_window = 0
        self._record_lifetime(i, state)
        self._qd_mean[i], self._qd_cov[i], self._lat_mean[i] = self._svc_last
        self._osds_total[i] = state.num_osds
        self._i = i + 1
