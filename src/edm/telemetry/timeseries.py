"""Per-epoch time-series capture and serialization.

``TimeSeriesRecorder`` accumulates the paper's longitudinal evaluation
curves -- per-OSD load, load CoV, peak ratio, cumulative per-OSD wear, wear
CoV, migrations per interval, the alive-masked remaining rated lifetime
(min/mean; ``+inf`` without an endurance model), and the per-epoch service
scalars (queue depth mean/CoV, mean latency; all 0.0 without a service
model) -- into preallocated NumPy buffers, sampling
every ``record_every`` epochs.  ``finalize`` always captures the end-of-run
state (after the last migration round), so the final row matches the scalar
metrics dict exactly.  ``migrations`` counts threshold-round moves only;
every move a run made, re-placement bursts included, is ``meta``'s
``migrations_total``, as in the metrics dict.

Each block of epochs (:meth:`~edm.telemetry.Recorder.on_block`) copies its
sampled rows; the load CoV and peak-ratio columns come from the block's own
row reductions, the wear CoV and lifetime columns from one reduction over
the sampled rows, and the service columns are read at ``finalize`` from the
run's :meth:`~edm.service.ServiceRuntime.epoch_series` (see
:meth:`~edm.telemetry.Recorder.on_service`).

The product is a :class:`TimeSeries`: immutable arrays plus a JSON-able
``meta`` dict carrying the config identity (``cache_name``/``config_hash``,
the workload, policy, size and seed, and every scenario spec of
:data:`edm.config.SCENARIOS`), with ``.npz`` (compact, lossless), JSON, and
CSV exporters.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from edm.config import SCENARIOS, SimConfig, config_hash
from edm.files import atomic_write
from edm.telemetry.recorder import EpochBlock, Recorder, mean_std

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
# 6: added the ``migrations_total`` meta key (every move of the run).
# 7: meta carries every :data:`~edm.config.SCENARIOS` spec (``redundancy``
#    was missing), which figures group runs by.
SERIES_FORMAT_VERSION = 7

#: Columns holding one value per OSD ([T, N]); the rest hold one per sample.
_PER_OSD_COLUMNS = ("load", "wear")
#: int64 columns; the rest are float64.
_INT_COLUMNS = ("epoch", "migrations", "alive", "replacements", "osds_total")


def _dtype(column: str) -> type:
    return np.int64 if column in _INT_COLUMNS else np.float64


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
        return atomic_write(
            path,
            lambda f: np.savez_compressed(
                f,
                meta=np.asarray(json.dumps(self.meta, sort_keys=True)),
                **{k: getattr(self, k) for k in _ARRAY_FIELDS},
            ),
        )

    @classmethod
    def load_npz(cls, path: str | os.PathLike) -> "TimeSeries":
        """Load a ``.npz`` series written in the current format.

        A file in any other format, or missing any current column, is
        rejected with the command that regenerates it.
        """
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta"][()]))
            version = meta.get("format_version")
            missing = [k for k in _ARRAY_FIELDS if k not in npz.files]
            if missing or version != SERIES_FORMAT_VERSION:
                lacks = f" is missing {missing}" if missing else ""
                raise ValueError(
                    f"{path}: series written by format v{version}{lacks}; "
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
        text = json.dumps(self.to_json_dict()) + "\n"
        return atomic_write(path, lambda f: f.write(text.encode()))

    def save_csv(self, path: str | os.PathLike) -> Path:
        """One row per sample: scalar columns, then per-OSD load/wear columns."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        n = self.num_osds
        header = [*_SCALAR_COLUMNS, *(f"{k}_osd{i}" for k in _PER_OSD_COLUMNS for i in range(n))]
        scalars = [getattr(self, k).astype(_dtype(k)).tolist() for k in _SCALAR_COLUMNS]
        per_osd = [getattr(self, k).astype(np.float64).tolist() for k in _PER_OSD_COLUMNS]
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for t in range(self.num_samples):
                w.writerow([c[t] for c in scalars] + [v for c in per_osd for v in c[t]])
        return path


#: Every array column, in declaration (and export) order.
_ARRAY_FIELDS = tuple(f.name for f in fields(TimeSeries) if f.name != "meta")
_SCALAR_COLUMNS = tuple(k for k in _ARRAY_FIELDS if k not in _PER_OSD_COLUMNS)


class TimeSeriesRecorder(Recorder):
    """Vectorized per-epoch series capture with downsampling.

    Samples epochs ``0, record_every, 2*record_every, ...`` plus the end-of-run
    state.  Buffers are preallocated at ``on_run_start`` (which also makes one
    instance reusable across runs), so a block costs a handful of slice
    assignments and row reductions over its sampled epochs.
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
        n = cfg.plans["topology"].max_osds(cfg.num_osds)
        self._cols = {
            k: np.zeros((cap, n) if k in _PER_OSD_COLUMNS else cap, dtype=_dtype(k))
            for k in _ARRAY_FIELDS
        }
        self._i = 0
        self._window = 0       # moves applied since the last recorded sample
        self._repl_window = 0  # failure re-placements since the last sample
        self._service = None

    def on_service(self, service) -> None:
        self._service = service

    def on_block(self, state: "ClusterState", block: EpochBlock) -> None:
        rows = slice(-block.epochs.start % self.record_every, len(block), self.record_every)
        if block.epochs[rows]:
            self._record(state, block, rows)

    def on_move(self, state: "ClusterState", chunks, src, dst, trigger: str) -> None:
        if trigger == "threshold":
            self._window += chunks.size

    def on_event(self, state: "ClusterState", event, moved: int) -> None:
        if event.kind != "drain":  # an evacuation is no failure re-placement
            self._repl_window += moved

    def finalize(self, state: "ClusterState", final_load: np.ndarray) -> TimeSeries:
        cfg = self._cfg
        if cfg is None:
            raise RuntimeError("finalize() before on_run_start(); pass the recorder to simulate()")
        last = cfg.epochs - 1
        c = self._cols
        if self._i and c["epoch"][self._i - 1] == last:
            # The last sample already landed on the final epoch, but migrations
            # (and their wear) from that epoch's interval fired *after* it was
            # recorded: record it again from the end-of-run state, its windows
            # kept, so the final row is truly end-of-run.
            self._i -= 1
            self._window += c["migrations"][self._i]
            self._repl_window += c["replacements"][self._i]
        end = EpochBlock(range(last, last + 1), final_load[None], state.osd_wear[None],
                         None, None, state.osd_alive, state.osd_capacity)
        self._record(state, end, slice(0, 1))
        i = self._i
        if self._service is not None:
            series = self._service.epoch_series()
            stepped = series["queue_depth_mean"].size
            if stepped:
                # Sampled rows read their own epoch; the end-of-run row
                # reads the last epoch stepped.
                at = np.minimum(c["epoch"][:i], stepped - 1)
                for k, v in series.items():
                    c[k][:i] = v[at]
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
                **{name: getattr(cfg, name) for name in SCENARIOS},
                "migrations_total": int(state.migrations_total),
            },
            **{k: buf[:i].copy() for k, buf in c.items()},
        )
        return self.series

    def _record(self, state: "ClusterState", block: EpochBlock, rows: slice) -> None:
        """Copy the block's ``rows`` into the next samples: the first closes
        the move windows, as no move falls between a block's epochs."""
        c, i, n = self._cols, self._i, block.width
        epochs = block.epochs[rows]
        at = slice(i, i + len(epochs))
        c["epoch"][at] = epochs
        # Partial-width assignment: under an elastic topology the block is
        # narrower than the plan-width buffers until the last scale-out.
        c["load"][at, :n] = block.load[rows]
        c["wear"][at, :n] = wear = block.wear[rows]
        c["load_cov"][at] = block.cov[rows]
        c["load_peak_ratio"][at] = block.peak[rows]
        mean, std = mean_std(wear)
        np.divide(std, mean, out=c["wear_cov"][at], where=mean > 0)
        c["migrations"][i] = self._window
        c["replacements"][i] = self._repl_window
        self._window = self._repl_window = 0
        ids = block.alive_ids
        c["alive"][at] = ids.size
        c["osds_total"][at] = n
        if ids.size:
            # ``remaining_life()[alive]``, its ``min()`` and ``mean()`` bit
            # for bit, minus their wrappers.
            rem = np.maximum(state.osd_rated_life[ids] - wear.take(ids, axis=1), 0.0)
            c["remaining_life_min"][at] = np.minimum.reduce(rem, axis=1)
            c["remaining_life_mean"][at] = np.add.reduce(rem, axis=1) / ids.size
        self._i = at.stop
