"""Cluster state held as flat NumPy arrays.

Everything the engine and policies touch per epoch lives here as an array
indexed by chunk or by OSD, so routing, wear accrual, and policy selection
are batch array ops rather than per-request Python loops.  State that
steers no decision -- service queues, reconstruction counters -- lives on
the recorder that accounts it (see :mod:`edm.telemetry.recorder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from edm.config import SimConfig


def _column(fill):
    """A per-OSD column whose new drives start at ``fill`` (its dtype too)."""
    return field(default=None, metadata={"fill": fill})


@dataclass
class ClusterState:
    num_osds: int
    num_chunks: int
    # Per-chunk
    chunk_owner: np.ndarray          # int32 [C], OSD id owning each chunk
    chunk_heat: np.ndarray           # float64 [C], EMA of access counts
    chunk_last_migrated: np.ndarray  # int64 [C], epoch of last migration
    #   (never-migrated sentinel -(10**9): far enough in the past that every
    #   chunk clears any cooldown window at epoch 0 without int64 overflow)
    # Per-OSD columns, each declared with the value a new drive starts with
    # (a fresh cluster is num_osds new drives).  __post_init__, grow and
    # validate all iterate OSD_COLUMNS, so every column tracks num_osds in
    # lockstep.
    osd_wear: np.ndarray = _column(0.0)         # float64 [N], cumulative erase-count units
    osd_load_ema: np.ndarray = _column(0.0)     # float64 [N], EMA of per-epoch load
    osd_alive: np.ndarray = _column(True)       # bool [N], False once an OSD has failed
    osd_capacity: np.ndarray = _column(1.0)     # float64 [N], capacity multiplier (0 = dead)
    osd_base_capacity: np.ndarray = _column(1.0)  # float64 [N], capacity before hiccups and death
    osd_rated_life: np.ndarray = _column(np.inf)  # float64 [N], rated P/E budget in wear units (inf = unrated)
    osd_wear_rate: np.ndarray = _column(0.0)    # float64 [N], EWMA of per-epoch wear increments
    osd_wear_seen: np.ndarray = _column(0.0)    # float64 [N], osd_wear at the last wear-rate update
    osd_draining: np.ndarray = _column(False)   # bool [N], True once a drain marked the OSD source-only
    # Redundancy state (plain configs carry None/0 and skip every group
    # check).  Groups are consecutive id ranges of group_width chunks whose
    # members must live on pairwise-distinct OSDs.
    chunk_group: np.ndarray = None   # int32 [C], placement-group id per chunk (None = plain)
    group_width: int = 0             # chunks per group (0 = plain)
    epoch: int = 0
    migrations_total: int = 0

    def __post_init__(self) -> None:
        for name, fill in OSD_COLUMNS.items():
            if getattr(self, name) is None:
                setattr(self, name, np.full(self.num_osds, fill, dtype=type(fill)))

    def grow(self, count: int, **fills) -> None:
        """Append ``count`` new drives to every per-OSD column.

        Each column extends by its new-drive value, or by ``fills[name]``
        where that is given and not None (an added device class's
        capacity or rating).
        """
        unknown = fills.keys() - OSD_COLUMNS.keys()
        if unknown:
            raise TypeError(f"not per-OSD columns: {sorted(unknown)}")
        for name, fill in OSD_COLUMNS.items():
            value = fill if fills.get(name) is None else fills[name]
            added = np.full(count, value, dtype=type(fill))
            setattr(self, name, np.concatenate([getattr(self, name), added]))
        self.num_osds += count

    @property
    def survivor_floor(self) -> int:
        """Fewest alive OSDs departures may leave: one, or one full group.

        Below ``max(1, group_width)`` a departing OSD's chunks have no
        (distinct) destination, so scheduled failures, wear-outs and drains
        all stop here (see :func:`edm.faults.departure_room`).
        """
        return max(1, self.group_width)

    def validate(self) -> None:
        """Cheap invariant check: every chunk owned by exactly one valid OSD."""
        if self.chunk_owner.shape != (self.num_chunks,):
            raise AssertionError("chunk_owner shape drifted")
        if self.chunk_owner.min() < 0 or self.chunk_owner.max() >= self.num_osds:
            raise AssertionError("chunk_owner contains out-of-range OSD id")
        for name in OSD_COLUMNS:
            if getattr(self, name).shape != (self.num_osds,):
                raise AssertionError(f"{name} width drifted from num_osds")
        if (self.osd_capacity < 0).any():
            raise AssertionError("osd_capacity contains negative entries")
        if not self.osd_alive.all():
            dead = np.flatnonzero(~self.osd_alive)
            if np.isin(self.chunk_owner, dead).any():
                raise AssertionError("dead OSD still owns chunks (re-placement missed)")
        if (self.osd_rated_life <= 0).any():
            raise AssertionError("osd_rated_life contains non-positive ratings")
        if (self.osd_wear_rate < 0).any():
            raise AssertionError("osd_wear_rate went negative (wear decreased?)")
        if (self.osd_draining & self.osd_alive & (self.osd_capacity > 0)).any():
            # A marked OSD should have been evacuated and retired within its
            # drain epoch; surviving the boundary means the engine skipped
            # the retire step.
            raise AssertionError("draining OSD survived its drain epoch un-retired")
        if self.chunk_group is not None:
            # The redundancy spread constraint: every (group, owner) pair is
            # unique, i.e. no placement group co-locates two chunks.
            key = self.chunk_group.astype(np.int64) * self.num_osds + self.chunk_owner
            if np.unique(key).size != self.num_chunks:
                raise AssertionError(
                    "placement group co-locates two chunks on one OSD"
                )

    def eligible_mask(self, cfg: SimConfig) -> np.ndarray:
        """Chunks past their migration cooldown window."""
        return (self.epoch - self.chunk_last_migrated) >= cfg.migration_cooldown_epochs

    def remaining_life(self) -> np.ndarray:
        """Rated cycles left per OSD, floored at 0 (``inf`` when unrated).

        The floor matters for the last-survivor overdraft case: an OSD kept
        serving past its budget reports 0 remaining life, never negative.
        """
        return np.maximum(self.osd_rated_life - self.osd_wear, 0.0)

    def predicted_wearout_epochs(self) -> np.ndarray:
        """Epochs until each OSD exhausts its budget at its current wear rate.

        ``remaining_life / wear_rate`` where the rate is positive, ``inf``
        otherwise (no rating, or no write traffic observed yet).  Safe under
        ``-W error::RuntimeWarning``: the division only runs where the rate
        is positive, and an unrated OSD divides ``inf`` by a finite rate.
        """
        out = np.full(self.num_osds, np.inf)
        np.divide(self.remaining_life(), self.osd_wear_rate, out=out,
                  where=self.osd_wear_rate > 0)
        return out

    def wearout_risk(self) -> np.ndarray:
        """Per-OSD wear-out risk ``1 / (1 + predicted epochs)`` in ``[0, 1]``:
        0 for an OSD predicted to live forever, 1 for one due now.  Bounded,
        so CMT can normalize it by a cluster-wide mean like its other terms."""
        return 1.0 / (1.0 + self.predicted_wearout_epochs())


#: Per-OSD column name -> the value a new drive starts with, in field order.
OSD_COLUMNS = {f.name: f.metadata["fill"] for f in fields(ClusterState) if "fill" in f.metadata}


def init_state(cfg: SimConfig) -> ClusterState:
    """Contiguous block placement: chunk i lives on OSD i // chunks_per_osd.

    Combined with rank-ordered Zipf popularity this concentrates the hot set
    on low-numbered OSDs, the realistic sequential-layout worst case that
    migration policies exist to fix.

    With a redundancy scheme configured (``cfg.redundancy``), placement is
    round-robin instead -- chunk i on OSD i % num_osds -- because contiguous
    blocks would put a whole placement group on one OSD.  Round-robin
    satisfies the spread constraint by construction: a group is a window of
    ``group_width`` consecutive ids, and ``group_width <= num_osds``
    (validated at config time), so its owners are pairwise distinct.

    Each OSD starts with its rated P/E budget from the endurance model
    (``inf`` on an unrated cluster).
    """
    c, n = cfg.num_chunks, cfg.num_osds
    group = None
    width = 0
    if cfg.redundancy:
        width = cfg.plans["redundancy"].group_width
        owner = (np.arange(c, dtype=np.int64) % n).astype(np.int32)
        group = (np.arange(c, dtype=np.int64) // width).astype(np.int32)
    else:
        owner = (np.arange(c, dtype=np.int64) // cfg.chunks_per_osd).astype(np.int32)
    return ClusterState(
        num_osds=n,
        num_chunks=c,
        chunk_owner=owner,
        chunk_heat=np.zeros(c),
        chunk_last_migrated=np.full(c, -(10**9), dtype=np.int64),
        chunk_group=group,
        group_width=width,
        osd_rated_life=cfg.plans["endurance"].per_osd(n),
    )
