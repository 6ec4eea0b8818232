"""Consolidate: Serifos-style workload packing with a saturation guard.

The spreading policies (CDF/HDF/CMT) send shed load to the *least* loaded
candidate; consolidation inverts that and packs compatible workloads onto
the *most* loaded candidate that still has headroom, concentrating traffic
on few OSDs so the rest stay cold (idle-able, wear-free, or ready to drain).
The saturation guard is what keeps packing from tipping into overload: a
candidate whose normalized load reaches ``1 + overload_tolerance`` -- the
same line that defines an overloaded migration *source* -- takes a large
constant penalty plus its overshoot, so saturated drives rank strictly
behind every unsaturated one (and among themselves by least overshoot)
without ever scoring infinite (scores flow into decision logs as JSON).

During interval selection the destination pool is already under-mean, so
the guard is dormant; it earns its keep in failure re-placement and drain
evacuation, where every alive OSD is a candidate and a naive "most loaded
wins" would dogpile the burst onto an already-hot survivor.

Chunk order is coldest-active-first (like CDF): consolidation moves the
low-intensity tail onto packed drives and leaves hot chunks where they are,
which is the Serifos trade -- many cheap moves over few disruptive ones.
"""

import numpy as np

from edm.policies.base import NormalizedScorePolicy, coldest_active_first

# Saturation penalty: large enough that a saturated candidate never outranks
# an unsaturated one (normalized packing scores live in [-O(1), 0]), finite
# so scores stay JSON-serializable in decision provenance.
_SATURATION_PENALTY = 1e6


class ConsolidatePolicy(NormalizedScorePolicy):
    name = "consolidate"
    chunk_order = staticmethod(coldest_active_first)

    def load_terms(self, load_norm, state, cfg):
        saturation = 1.0 + cfg.overload_tolerance
        return {
            # Negated load: the fullest candidate scores lowest (wins).
            "packing": -load_norm,
            "saturation": np.where(
                load_norm >= saturation,
                (load_norm - saturation) + _SATURATION_PENALTY,
                0.0,
            ),
        }
