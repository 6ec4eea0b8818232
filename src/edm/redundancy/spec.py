"""Redundancy schemes: replicated / erasure-coded chunk-group placement.

A :class:`RedundancyScheme` is parsed from a compact spec string (the
``redundancy`` field of :class:`~edm.config.SimConfig`, or ``--redundancy``
on the CLI) and groups consecutive chunks into *placement groups* whose
members must live on pairwise-distinct OSDs -- the classic replica /
erasure-code spread constraint.  There is no randomness here: the grouping
is a pure function of the spec, so redundant runs are exactly as
reproducible as plain ones.

The spec is exactly one clause of :class:`RedundancyScheme`: ``rep:N``
(N >= 2 copies per group) or ``ec:M+K`` (M data + K parity chunks)::

    rep:3     three-way replication: groups of 3 chunks, 3 distinct OSDs
    ec:4+2    Reed-Solomon-style 4+2: groups of 6 chunks, 6 distinct OSDs

The empty string (or ``"none"``) means no redundancy: chunks are placed
independently and a failed OSD's chunks are simply re-placed.

With a scheme configured, losing a chunk triggers *reconstruction*: the
engine reads surviving group members (1 read for replication, M reads for
``ec:M+K``) and writes a fresh copy -- read-amplified recovery traffic
charged through the service queues, with the write charged as ordinary
migration wear.  A group that loses more members than the scheme tolerates
is counted as data loss (the simulator still re-places the chunk so the
engine's ownership invariants hold).

Parsing canonicalizes the spec (``rep:03`` -> ``rep:3``) so equivalent
spellings produce the same ``SimConfig`` content hash.
"""

from __future__ import annotations

from dataclasses import dataclass

from edm.spec import Clause, ClauseSet, SpecError

__all__ = ["RedundancyScheme"]


@dataclass(frozen=True)
class _Scheme:
    """``kind`` is ``"rep"`` / ``"ec"`` / ``""``; ``m`` is the copy count for
    replication or the data-chunk count for erasure coding; ``k`` is the
    parity-chunk count (0 for replication)."""

    kind: str = ""
    m: int = 0
    k: int = 0


class RedundancyScheme(ClauseSet):
    """A validated redundancy scheme (the empty scheme = no redundancy)."""

    noun = "redundancy scheme"
    expected = "'rep:N' (N-way replication) or 'ec:M+K' (M data + K parity)"
    clauses = (
        Clause("rep:{m}", _Scheme, kind="rep"),
        Clause("ec:{m}+{k}", _Scheme, kind="ec"),
    )

    @property
    def _scheme(self) -> _Scheme:
        return self.items[0] if self.items else _Scheme()

    @property
    def group_width(self) -> int:
        """Chunks per placement group -- each on a distinct OSD."""
        return self._scheme.m + self._scheme.k

    @property
    def reads_per_loss(self) -> int:
        """Surviving-chunk reads needed to rebuild one lost chunk.

        Replication copies from any single survivor; ``ec:M+K`` decodes from
        any M survivors -- the read amplification erasure codes trade for
        their storage efficiency.
        """
        return 1 if self._scheme.kind == "rep" else self._scheme.m

    @classmethod
    def from_clauses(cls, schemes: list, spec: str | None) -> "RedundancyScheme":
        if len(schemes) > 1:
            raise SpecError(
                f"bad redundancy spec {spec!r}: exactly one scheme is "
                f"allowed, got {len(schemes)}"
            )
        return cls(tuple(schemes))

    def validate(self, num_osds: int | None = None) -> None:
        s = self._scheme
        if s.kind == "rep" and s.m < 2:
            raise SpecError(
                f"redundancy scheme {self.spec!r}: replication needs at "
                f"least 2 copies ('none' = no redundancy)"
            )
        if s.kind == "ec" and (s.m < 1 or s.k < 1):
            raise SpecError(
                f"redundancy scheme {self.spec!r}: erasure coding needs at "
                f"least 1 data and 1 parity chunk"
            )
        if num_osds is not None and self.group_width > num_osds:
            raise SpecError(
                f"redundancy scheme {self.spec!r} needs {self.group_width} "
                f"distinct OSDs per group, but the cluster has {num_osds}"
            )
