"""Endurance model: rated P/E budgets, lifetime tracking, wear-out failures.

* :mod:`edm.endurance.spec` -- :class:`EnduranceModel`: parse and
  canonicalize ``--endurance`` spec strings (``pe:5000``,
  ``pe:3000@0-3,10000@4-7``; seed-free, fully deterministic).
* :mod:`edm.endurance.runtime` -- :class:`EnduranceTracker`: installs rated
  budgets on cluster state, maintains the per-OSD wear-rate EWMA, and fails
  OSDs whose consumed cycles reach their rating, as many as the survivor
  floor every departure obeys allows (:func:`edm.faults.departure_room`);
  :func:`wearout_risk` is the bounded epochs-to-wear-out transform CMT's
  destination score steers by.

The engine wires these together in :func:`edm.engine.core.simulate`: a
wear-out fires a synthesized ``wearout`` :class:`~edm.faults.FaultEvent`
through the same re-placement and ``on_fault`` observer path as a
scheduled failure, so the fault and endurance layers share one degraded-mode
machinery.
"""

from edm.endurance.runtime import EnduranceTracker, wearout_risk
from edm.endurance.spec import EnduranceModel

__all__ = [
    "EnduranceModel",
    "EnduranceTracker",
    "wearout_risk",
]
