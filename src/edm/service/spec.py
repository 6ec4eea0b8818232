"""Service specs: per-OSD service rates and a bounded queue.

A :class:`ServiceModel` is parsed from a compact spec string (the
``service`` field of :class:`~edm.config.SimConfig`, or ``--service`` on the
CLI) and assigns every OSD a service rate -- requests retired per epoch at
full capacity -- plus an optional cluster-wide queue bound.  Like the fault
and endurance specs there is no randomness here: the model is a pure
function of the spec, so serviced runs are exactly as reproducible as
unserviced ones.

The grammar is the clause table of :class:`ServiceModel`.  Clauses join
with ``;`` (no commas, so a comma-separated CLI list can carry several
scenarios).  Examples::

    rate:800                     every OSD retires 800 requests/epoch
    rate:800;rate:400@0-3        OSDs 0..3 at 400, the rest at 800
    rate:800;queue:64            bounded queue: arrivals beyond backlog 64 drop
    rate:400@0-3;rate:800@4-7    per-band rates covering the whole cluster

At most one rate clause may omit the ``@`` range; it becomes the default
rate for every OSD not covered by a ranged clause.  Without a default the
ranged clauses must cover the whole cluster.  At most one ``queue`` clause
is allowed; without one the queue is unbounded (nothing drops, latency just
grows).  The empty string (or ``"none"``) disables the service model
entirely: requests stay pure units of load and no latency is simulated.

Parsing canonicalizes the spec -- default rate first, ranged rates sorted by
their first OSD, the queue clause last, numbers normalized -- so two
spellings of the same model produce the same ``SimConfig`` content hash and
hit the same cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from edm.spec import Band, BandSet, Clause, SpecError


@dataclass(frozen=True)
class ServiceModel(BandSet):
    """A validated service-rate model: rate bands plus an optional queue.

    ``per_osd(n)`` is the service rate per OSD in requests/epoch at full
    capacity; the empty model rates every OSD at ``inf`` -- the engine's
    "no service model" representation: an infinite rate retires any
    backlog instantly, so queues never form.
    """

    queue: int | None = None

    noun = "service clause"
    expected = "'rate:RATE', 'rate:RATE@OSD', 'rate:RATE@LO-HI' or 'queue:DEPTH'"
    clauses = (
        Clause("rate:{value:fixed}{@range}", Band),
        Clause("queue:{queue}", dict),  # {"queue": DEPTH}, folded into ``queue``
    )
    spec_noun = "service spec"
    value_noun = "service rate"
    missing_noun = "service rate"

    @property
    def spec(self) -> str:
        """Canonical spec string: rate bands, then the queue clause."""
        if self.queue is None:
            return super().spec
        return f"{super().spec};queue:{self.queue}"

    @property
    def queue_bound(self) -> float:
        """Queue depth bound as a float; ``inf`` when unbounded."""
        return float(self.queue) if self.queue is not None else np.inf

    @classmethod
    def from_clauses(cls, clauses: list, spec: str | None) -> "ServiceModel":
        if not clauses:
            return cls()
        bands = [c for c in clauses if isinstance(c, Band)]
        queues = [c["queue"] for c in clauses if isinstance(c, dict)]
        if not bands:
            raise SpecError(
                f"bad service spec {spec!r}: no rate clause; at least one "
                f"'rate:RATE' is required"
            )
        if len(queues) > 1:
            raise SpecError(
                f"bad service spec {spec!r}: at most one queue clause is allowed"
            )
        bands.sort(key=cls.sort_key)
        return cls(tuple(bands), queues[0] if queues else None)

    def validate(self, num_osds: int | None = None) -> None:
        if self.queue is not None and self.queue < 1:
            raise SpecError(
                f"service clause 'queue:{self.queue}': queue depth must be >= 1"
            )
        super().validate(num_osds=num_osds)
