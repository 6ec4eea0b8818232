"""Endurance model: rated P/E budgets, lifetime tracking, wear-out failures.

* :mod:`edm.endurance.spec` -- :class:`EnduranceModel`: parse and
  canonicalize ``--endurance`` spec strings (``pe:5000``,
  ``pe:3000@0-3,10000@4-7``; seed-free, fully deterministic).

Endurance is per-OSD state, so the layers that own that kind of work carry
it: :func:`edm.engine.state.init_state` installs the ratings, the fused
epoch kernel folds the wear-rate EWMA behind
:meth:`~edm.engine.state.ClusterState.wearout_risk` (which CMT and PSWL
score by), and the departure timeline's ``endurance`` layer
(:mod:`edm.faults.runtime`) fails OSDs that reach their rating, under the
survivor floor every departure obeys.  A wear-out is a ``wearout``
:class:`~edm.faults.FaultEvent` taking a scheduled failure's re-placement
and ``on_event`` path.
"""

from edm.endurance.spec import EnduranceModel

__all__ = [
    "EnduranceModel",
]
