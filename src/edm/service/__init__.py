"""Request-level service model: per-OSD rates, bounded queues, tail latency.

``ServiceModel`` parses the compact ``service`` spec
(``rate:800;rate:400@0-3;queue:64``); ``ServiceRuntime``, the recorder that
owns the queues, steps their per-epoch recursion and accumulates the
p50/p99/p999 latency histogram and migration-spike statistics.
"""

from edm.service.runtime import LATENCY_EDGES, ServiceRuntime, histogram_percentile
from edm.service.spec import ServiceModel

__all__ = [
    "LATENCY_EDGES",
    "ServiceModel",
    "ServiceRuntime",
    "histogram_percentile",
]
