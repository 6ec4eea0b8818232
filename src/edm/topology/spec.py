"""Topology plans: deterministic, seed-free schedules of cluster reshaping.

A :class:`TopologyPlan` is parsed from a compact spec string (the
``topology`` field of :class:`~edm.config.SimConfig`, or ``--topology`` on
the CLI) and fully determines *when* and *how* the cluster changes shape --
there is no randomness in the topology layer, so an elastic run is exactly
as reproducible as a static one.

The grammar is the clause table of :class:`TopologyPlan`; an ``add`` may
end in ``/`` and ``cap:FACTOR``, ``rate:RATE``, ``pe:CYCLES`` attributes
joined with ``,``.  Events join with ``;``, so a ``|``-separated CLI list
can carry several plans.  Examples::

    add:4@128                       4 cold drives join at epoch 128
    add:4@128/cap:2,rate:1600,pe:10000
                                    a heterogeneous band: double capacity,
                                    1600 req/epoch, rated 10000 cycles
    drain:2@64                      OSD 2 evacuates and retires at epoch 64
    add:2@32/cap:2;drain:0@96       scale out, then scale in, one plan

Unspecified attributes inherit the cluster's defaults: capacity 1.0, the
service model's default rate (no queueing without one), the endurance
model's default rating (unrated without one).  The empty string (or
``"none"``) is the static cluster.  Parsing canonicalizes the spec --
events sorted by (epoch, kind, count-or-osd) with ``add`` before ``drain``
at the same epoch, attributes in ``cap,rate,pe`` order, numbers normalized
-- so two spellings of the same plan produce the same ``SimConfig`` content
hash and hit the same cache entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from edm.spec import NUMBER, Clause, ClauseSet, SpecError, format_fixed, format_g

TOPOLOGY_KINDS = ("add", "drain")

#: Attribute keys an ``add`` event accepts, in canonical rendering order.
ADD_ATTRS = ("cap", "rate", "pe")

_ATTR_RE = re.compile(rf"({'|'.join(ADD_ATTRS)}):({NUMBER})")


@dataclass(frozen=True)
class TopologyEvent:
    """One scheduled reshaping event.

    ``count`` is the number of OSDs joining (``add`` only); ``osd`` the id
    leaving (``drain`` only).  ``cap`` / ``rate`` / ``pe`` describe the
    device class of an added band -- ``rate`` and ``pe`` stay ``None`` when
    the plan defers to the service / endurance model defaults.
    """

    kind: str
    epoch: int
    count: int = 0
    osd: int = -1
    cap: float = 1.0
    rate: float | None = None
    pe: float | None = None

    @property
    def attrs(self) -> str:
        """Canonical ``cap,rate,pe`` suffix of an ``add``; empty if all default."""
        attrs = [f"cap:{format_g(self.cap)}"] if self.cap != 1.0 else []
        attrs += [
            f"{key}:{format_fixed(val)}"
            for key, val in (("rate", self.rate), ("pe", self.pe))
            if val is not None
        ]
        return ",".join(attrs)


def _add(kind: str, count: int, epoch: int, attrs: str | None) -> TopologyEvent:
    """Build an ``add`` event, reading its ``/cap:F,rate:R,pe:C`` suffix."""
    found: dict[str, float] = {}
    for part in attrs.split(",") if attrs is not None else ():
        part = part.strip()
        m = _ATTR_RE.fullmatch(part)
        if not m:
            raise SpecError(
                f"bad attribute {part!r}; expected 'cap:FACTOR', "
                f"'rate:RATE' or 'pe:CYCLES'"
            )
        key, val = m[1], float(m[2])
        if key in found:
            raise SpecError(f"attribute {key!r} given twice")
        if val <= 0:
            raise SpecError(f"{key} must be > 0")
        found[key] = val
    return TopologyEvent(
        kind, epoch, count=count, cap=found.get("cap", 1.0),
        rate=found.get("rate"), pe=found.get("pe"),
    )


class TopologyPlan(ClauseSet):
    """A validated schedule of reshaping events.

    Events sort by (epoch, kind, count-or-osd); "add" sorts before "drain",
    so growth lands before any same-epoch scale-in -- a drain may target a
    band added that very epoch.
    """

    noun = "topology event"
    expected = (
        "'add:COUNT@EPOCH', 'add:COUNT@EPOCH/cap:F,rate:R,pe:C' "
        "or 'drain:OSD@EPOCH'"
    )
    clauses = (
        Clause("add:{count}@{epoch}{/attrs}", _add, kind="add"),
        Clause("drain:{osd}@{epoch}", TopologyEvent, kind="drain"),
    )

    @staticmethod
    def sort_key(ev: TopologyEvent) -> tuple:
        return (ev.epoch, ev.kind, ev.count if ev.kind == "add" else ev.osd)

    @property
    def events(self) -> tuple[TopologyEvent, ...]:
        return self.items

    @property
    def adds(self) -> tuple[TopologyEvent, ...]:
        return tuple(ev for ev in self.items if ev.kind == "add")

    def max_osds(self, initial: int) -> int:
        """Largest OSD-array width the plan ever reaches (drains don't shrink
        arrays -- a retired OSD keeps its slot, dead)."""
        return initial + sum(ev.count for ev in self.adds)

    def validate(self, num_osds: int | None = None) -> None:
        drained: set[int] = set()
        running = num_osds
        for ev in self.items:
            if ev.kind == "add":
                if ev.count < 1:
                    raise SpecError(
                        f"topology event {self.render(ev)!r}: count must be >= 1"
                    )
                if running is not None:
                    running += ev.count
                continue
            if ev.osd in drained:
                raise SpecError(
                    f"OSD {ev.osd} scheduled to drain more than once"
                )
            drained.add(ev.osd)
            if running is not None:
                # The id must exist by the drain's epoch: initial OSDs plus
                # every band added at or before it (events are epoch-sorted,
                # so ``running`` counts exactly those).
                if ev.osd >= num_osds + sum(
                    a.count for a in self.adds if a.epoch <= ev.epoch
                ):
                    raise SpecError(
                        f"topology event {self.render(ev)!r}: OSD {ev.osd} does "
                        f"not exist at epoch {ev.epoch} (cluster has grown "
                        f"to {running} OSDs by then)"
                    )
                running -= 1
                if running < 2:
                    raise SpecError(
                        f"topology event {self.render(ev)!r}: plan drains the "
                        f"cluster below 2 OSDs; at least 2 must remain"
                    )
