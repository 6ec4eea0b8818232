"""Reconstruction-traffic accounting for redundant placement.

The placement side of redundancy is static state (``ClusterState.group_width``,
laid out by :func:`edm.engine.state.init_state`, read through
:meth:`~edm.engine.state.ClusterState.group_owners` and enforced by the policy
layer and the engine's re-placement path).  This runtime is a
:class:`~edm.telemetry.Recorder` that accounts the *dynamic* side from the
move hook: when an OSD fails (scheduled fault or wear-out), each of its
chunks is rebuilt from surviving group members instead of merely copied --

  * ``reads_per_loss`` surviving chunks are read (1 for replication, M for
    ``ec:M+K``), chosen by :func:`rebuild_reads`, which the service recorder
    shares to charge those reads into the sources' queues (reads occupy
    queues but, unlike the rebuild write, add no erase-count wear);
  * one fresh chunk is written at the destination the policy picked, charged
    as ordinary migration wear by :func:`edm.engine.core.apply_migrations`;
  * a group with fewer survivors than the scheme needs is counted as data
    loss (the chunk is still re-placed so ownership invariants hold).

Graceful drains never charge reconstruction: the draining OSD is alive, so
its chunks stream out as plain (group-constrained) migrations.

All counters surface through :meth:`metrics_block`, merged into the final
metrics dict only for redundant configs so plain runs stay bit-identical to
the redundancy-unaware engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from edm.redundancy.spec import RedundancyScheme
from edm.telemetry.recorder import Recorder

if TYPE_CHECKING:
    from edm.config import SimConfig
    from edm.engine.state import ClusterState

__all__ = ["RedundancyRuntime", "rebuild_reads"]


def rebuild_reads(
    state: "ClusterState", lost: np.ndarray, reads_per_loss: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reads that rebuild ``lost`` chunks: ``(sources, reads, needed)``.

    For each lost chunk, the first ``reads_per_loss`` surviving group
    members in chunk-id order are read.  ``sources`` holds the OSD of every
    read (chunk by chunk), ``reads`` and ``needed`` the reads each chunk
    got and wanted: fewer than needed -- e.g. several same-epoch failures
    hitting one group -- is data loss.  A trailing *partial* group (chunk
    count not a multiple of the group width) is a narrower stripe: it needs
    however many peers it actually has, capped at ``reads_per_loss``.
    """
    lost = np.asarray(lost, dtype=np.int64)
    # One pass over the (lost x width) member matrix; the lost chunk and a
    # trailing partial group's repeats of its last member are no peers.
    members, owners = state.group_owners(lost)
    peer = members != lost[:, None]
    peer[:, 1:] &= members[:, 1:] != members[:, :-1]
    live = peer & state.osd_alive[owners]
    needed = np.minimum(reads_per_loss, peer.sum(axis=1))
    read = live & (np.cumsum(live, axis=1) <= needed[:, None])
    return owners[read], read.sum(axis=1), needed


class RedundancyRuntime(Recorder):
    """Per-run reconstruction counters for one :class:`RedundancyScheme`."""

    def __init__(self, scheme: RedundancyScheme, cfg: "SimConfig"):
        self.scheme = scheme
        self.cfg = cfg
        self.reconstruction_chunks = 0
        self.reconstruction_reads = 0
        self.data_loss_chunks = 0

    def on_move(self, state, chunks, src, dst, trigger) -> None:
        """Count the rebuild of every chunk moved off a dead OSD (a failure's
        or wear-out's burst); moves off live OSDs are plain copies."""
        lost = chunks[~state.osd_alive[src]]
        if lost.size:
            _, reads, needed = rebuild_reads(state, lost, self.scheme.reads_per_loss)
            self.data_loss_chunks += int((reads < needed).sum())
            self.reconstruction_reads += int(reads.sum())
            self.reconstruction_chunks += int(lost.size)

    def metrics_block(self) -> dict:
        """Reconstruction metrics, merged into the final dict for redundant runs."""
        cfg = self.cfg
        return {
            "redundancy": cfg.redundancy,
            "redundancy_group_width": int(self.scheme.group_width),
            "reconstruction_chunks_total": int(self.reconstruction_chunks),
            "reconstruction_reads_total": int(self.reconstruction_reads),
            "reconstruction_read_mb": float(
                self.reconstruction_reads * cfg.chunk_size_mb
            ),
            "reconstruction_write_mb": float(
                self.reconstruction_chunks * cfg.chunk_size_mb
            ),
            "data_loss_chunks_total": int(self.data_loss_chunks),
        }
