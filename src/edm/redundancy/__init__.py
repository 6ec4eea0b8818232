"""Replicated / erasure-coded chunk-group placement and reconstruction.

:class:`RedundancyScheme` (:mod:`edm.redundancy.spec`) parses the
``--redundancy`` spec grammar (``rep:3`` / ``ec:4+2``) into a placement
constraint: consecutive chunks form groups whose members must live on
pairwise-distinct OSDs.  :class:`RedundancyRuntime`
(:mod:`edm.redundancy.runtime`) accounts the read-amplified reconstruction
traffic failures trigger under that constraint; :func:`rebuild_reads`
picks the surviving members a rebuild reads.
"""

from edm.redundancy.runtime import RedundancyRuntime, rebuild_reads
from edm.redundancy.spec import RedundancyScheme

__all__ = ["RedundancyRuntime", "RedundancyScheme", "rebuild_reads"]
