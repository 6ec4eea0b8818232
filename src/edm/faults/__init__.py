"""Fault injection: deterministic OSD failure / slow-disk / hiccup scenarios.

* :mod:`edm.faults.plan` -- :class:`FaultPlan` / :class:`FaultEvent`: parse
  and canonicalize ``--faults`` spec strings (seed-free, fully deterministic).
* :mod:`edm.faults.runtime` -- the departure timeline:
  :func:`compile_timeline` merges the fault and topology plans into one
  event tuple at config time, :class:`Timeline` steps it into cluster state
  at epoch boundaries (and dry-runs it at config time), and
  :func:`departure_room` is the one survivor-floor rule every departure --
  ``fail``, ``drain``, ``wearout`` -- obeys; :func:`effective_load` is the
  shared ``load / capacity`` view policies and re-placement rank by.

The engine wires these together in :class:`edm.engine.core.Run`: a
``fail`` event triggers re-placement of the dead OSD's chunks through
the active policy's destination scoring (charged as ordinary migration
wear), ``slow``/``hiccup`` events scale per-OSD capacity, and every fired
event is fanned out to recorders via the ``on_fault`` observer hook.
"""

from edm.faults.plan import FAULT_KINDS, WEAROUT_KIND, FaultEvent, FaultPlan
from edm.faults.runtime import (
    Timeline,
    compile_timeline,
    departure_room,
    effective_load,
    leave,
)

__all__ = [
    "FAULT_KINDS",
    "WEAROUT_KIND",
    "FaultEvent",
    "FaultPlan",
    "Timeline",
    "compile_timeline",
    "departure_room",
    "effective_load",
    "leave",
]
