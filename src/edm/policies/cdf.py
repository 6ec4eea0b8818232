"""CDF: cold-data-first migration.

Moves the coldest active chunks first, so each move disturbs little ongoing
traffic -- at the cost of needing many more moves (higher migration cost)
to shed the same load.
"""

from edm.policies.base import ThresholdPolicy, coldest_active_first


class CdfPolicy(ThresholdPolicy):
    name = "cdf"
    chunk_order = staticmethod(coldest_active_first)
