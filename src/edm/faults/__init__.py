"""Fault injection: deterministic OSD failure / slow-disk / hiccup scenarios.

* :mod:`edm.faults.plan` -- :class:`FaultPlan` / :class:`FaultEvent`: parse
  and canonicalize ``--faults`` spec strings (seed-free, fully deterministic).
* :mod:`edm.faults.runtime` -- :class:`FaultRuntime`: applies a plan to live
  cluster state at epoch boundaries; :func:`effective_load` is the shared
  ``load / capacity`` view policies and re-placement rank by.

The engine wires these together in :func:`edm.engine.core.simulate`: a
``fail`` event triggers re-placement of the dead OSD's chunks through
the active policy's destination scoring (charged as ordinary migration
wear), ``slow``/``hiccup`` events scale per-OSD capacity, and every fired
event is fanned out to recorders via the ``on_fault`` observer hook.
"""

from edm.faults.plan import FAULT_KINDS, WEAROUT_KIND, FaultEvent, FaultPlan
from edm.faults.runtime import FaultRuntime, effective_load

__all__ = [
    "FAULT_KINDS",
    "WEAROUT_KIND",
    "FaultEvent",
    "FaultPlan",
    "FaultRuntime",
    "effective_load",
]
