"""Elastic topology: runtime scale-out / scale-in and mixed device classes.

* :mod:`edm.topology.spec` -- :class:`TopologyPlan` / :class:`TopologyEvent`:
  parse and canonicalize ``--topology`` spec strings (seed-free, fully
  deterministic), e.g. ``add:4@128/cap:2,rate:1600,pe:10000;drain:0@192``.

The engine steps a topology plan on the departure timeline
(:mod:`edm.faults.runtime`), first at each epoch boundary: ``add`` grows
every per-OSD column with cold drives of the event's device class (zero
wear and load, so policies see them as prime destinations -- the paper's
wear-vs-load tension at its sharpest), and a ``drain``'s OSD is evacuated
through the active policy's destination scoring while still alive, then
retired.  Every fired event fans out to recorders via ``on_event``.
"""

from edm.topology.spec import ADD_ATTRS, TOPOLOGY_KINDS, TopologyEvent, TopologyPlan

__all__ = [
    "ADD_ATTRS",
    "TOPOLOGY_KINDS",
    "TopologyEvent",
    "TopologyPlan",
]
