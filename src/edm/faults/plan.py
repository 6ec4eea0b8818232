"""Fault plans: deterministic, seed-free schedules of OSD events.

A :class:`FaultPlan` is parsed from a compact spec string (the ``faults``
field of :class:`~edm.config.SimConfig`, or ``--faults`` on the CLI) and
fully determines *when* and *how* the cluster degrades -- there is no
randomness in the fault layer, so a faulted run is exactly as reproducible
as a healthy one.

The grammar is the clause table of :class:`FaultPlan`.  Events join with
``;`` (no commas, so a comma-separated CLI list can carry several
scenarios).  Examples::

    fail:3@100                 OSD 3 dies at epoch 100
    slow:5@50x0.5              OSD 5 halves its capacity from epoch 50 on
    hiccup:2@60+10x0.25        OSD 2 runs at quarter capacity for epochs 60..69
    fail:3@100;slow:5@50x0.5   both, one scenario

The empty string (or ``"none"``) is the healthy cluster.  Parsing
canonicalizes the spec -- events sorted by (epoch, kind, osd), numbers
normalized -- so two spellings of the same plan produce the same
``SimConfig`` content hash and hit the same cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from edm.spec import Clause, ClauseSet, SpecError

FAULT_KINDS = ("fail", "slow", "hiccup")

# Synthesized at runtime by the endurance layer (edm.endurance) when an OSD's
# consumed P/E cycles reach its rated budget; behaves exactly like ``fail``
# but is never part of a parseable spec -- wear-out timing is a consequence
# of traffic, not a schedule.
WEAROUT_KIND = "wearout"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled OSD event.

    ``factor`` is the capacity multiplier (``slow``/``hiccup`` only);
    ``duration`` is the hiccup window length in epochs (``hiccup`` only).
    """

    kind: str
    osd: int
    epoch: int
    factor: float = 1.0
    duration: int = 0

    def render(self) -> str:
        """Canonical spec fragment for this event."""
        if self.kind == WEAROUT_KIND:
            return f"{WEAROUT_KIND}:{self.osd}@{self.epoch}"
        return FaultPlan.render(self)


class FaultPlan(ClauseSet):
    """A validated schedule of fault events, sorted by (epoch, kind, osd)."""

    noun = "fault event"
    expected = (
        "'fail:OSD@EPOCH', 'slow:OSD@EPOCHxFACTOR' "
        "or 'hiccup:OSD@EPOCH+DURATIONxFACTOR'"
    )
    clauses = (
        Clause("fail:{osd}@{epoch}", FaultEvent, kind="fail"),
        Clause("slow:{osd}@{epoch}x{factor:g}", FaultEvent, kind="slow"),
        Clause("hiccup:{osd}@{epoch}+{duration}x{factor:g}", FaultEvent, kind="hiccup"),
    )

    @staticmethod
    def sort_key(ev: FaultEvent) -> tuple:
        return (ev.epoch, ev.kind, ev.osd)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self.items

    def validate(self, num_osds: int | None = None) -> None:
        failed: set[int] = set()
        for ev in self.items:
            if num_osds is not None and not 0 <= ev.osd < num_osds:
                raise SpecError(
                    f"fault event {ev.render()!r}: OSD {ev.osd} out of range "
                    f"for a {num_osds}-OSD cluster"
                )
            if ev.kind in ("slow", "hiccup") and ev.factor <= 0:
                raise SpecError(
                    f"fault event {ev.render()!r}: capacity factor must be > 0"
                )
            if ev.kind == "hiccup" and ev.duration < 1:
                raise SpecError(f"fault event {ev.render()!r}: duration must be >= 1")
            if ev.kind == "fail":
                if ev.osd in failed:
                    raise SpecError(f"OSD {ev.osd} scheduled to fail more than once")
                failed.add(ev.osd)
