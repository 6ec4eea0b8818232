"""Cluster state held as flat NumPy arrays.

Everything the engine and policies touch per epoch lives here as an array
indexed by chunk or by OSD, so routing, wear accrual, and policy selection
are batch array ops rather than per-request Python loops.  Placement
groups are a width, not a per-chunk array: :meth:`ClusterState.group_owners`
derives any chunks' groups and their owners (a plain cluster's groups are
single chunks, width 1).  State that steers no decision -- service queues,
reconstruction counters -- lives on the recorder that accounts it (see
:mod:`edm.telemetry.recorder`).
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
    # Chunks per placement group, whose members must live on pairwise-
    # distinct OSDs (see group_owners); 1 on a plain cluster, where every
    # chunk is a group of its own.
    group_width: int = 1
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
        """Fewest alive OSDs departures may leave: one full group.

        Below ``group_width`` a departing OSD's chunks have no (distinct)
        destination, so scheduled failures, wear-outs and drains all stop
        here (see :func:`edm.faults.departure_room`).
        """
        return self.group_width

    def group_owners(self, chunks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(members, owners)``: each chunk's placement group and its OSDs.

        Both are ``(len(chunks), group_width)``: row ``i`` holds the ids of
        ``chunks[i]``'s group members in increasing order, itself included,
        and the OSD owning each.  Groups are windows of ``group_width``
        consecutive ids; this is the one place that knows it.  When the
        chunk count is not a multiple of the width, the trailing group is
        narrower and its rows repeat its last chunk to fill the width.
        """
        w = self.group_width
        members = (np.asarray(chunks, dtype=np.int64) // w * w)[:, None] + np.arange(w)
        np.minimum(members, self.num_chunks - 1, out=members)
        return members, self.chunk_owner[members]

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
        w = self.group_width
        if w > 1:
            # The redundancy spread constraint: every (group, owner) pair is
            # unique, i.e. no placement group co-locates two chunks.
            group = np.arange(self.num_chunks, dtype=np.int64) // w
            key = group * self.num_osds + self.chunk_owner
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
    consecutive ids (:meth:`ClusterState.group_owners`) no wider than the
    cluster (validated at config time), so its owners are pairwise distinct.
    A plain cluster's groups are single chunks.

    Each OSD starts with its rated P/E budget from the endurance model
    (``inf`` on an unrated cluster).
    """
    c, n = cfg.num_chunks, cfg.num_osds
    ids = np.arange(c, dtype=np.int64)
    scheme = cfg.plans["redundancy"]
    owner = ids % n if scheme else ids // cfg.chunks_per_osd
    return ClusterState(
        num_osds=n,
        num_chunks=c,
        chunk_owner=owner.astype(np.int32),
        chunk_heat=np.zeros(c),
        chunk_last_migrated=np.full(c, -(10**9), dtype=np.int64),
        group_width=scheme.group_width if scheme else 1,
        osd_rated_life=cfg.plans["endurance"].per_osd(n),
    )
