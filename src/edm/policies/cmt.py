"""CMT: the paper's endurance-aware EDM migration scheme.

Like HDF it sheds the hottest eligible chunks from overloaded OSDs, but the
destination is chosen by a combined load + wear score instead of load alone:
an underloaded SSD with many erase cycles already on the clock is penalized,
so migration writes (and the follow-on write traffic of hot chunks) land on
the least-worn drives.  Drives within a small load band are therefore
ranked purely by remaining endurance, equalizing wear across the cluster
while still meeting the load-balance target.

With an endurance model configured (``cfg.endurance``), a third term joins
the score: the bounded wear-out risk ``1 / (1 + predicted epochs to
wear-out)``, so a drive that is *close to dying* -- high wear rate against
little remaining rated life -- is penalized even when its absolute wear
looks ordinary, and migrations steer away from near-death devices.  Unrated
configs never compute the term, keeping their scores bit-identical to the
endurance-unaware policy.
"""

import numpy as np

from edm.policies.base import NormalizedScorePolicy


class CmtPolicy(NormalizedScorePolicy):
    name = "cmt"

    def static_destination_terms(self, candidates, state, cfg):
        """CMT's load-independent score terms: wear (+ wear-out risk).

        The base class folds the normalized load term first, then these in
        insertion order -- the historical ``(load_norm + wear_term) +
        risk_term`` addition sequence -- so every pick, explained or not,
        scores from this one definition and the pre-zoo golden hashes stay
        pinned.  Wear and wear-out risk are normalized by *cluster-wide*
        scales (mean over alive OSDs), never by the candidate subset: a
        drive's score -- and hence the trade-off between the terms -- must
        not change with who else happens to be a candidate this round.
        """
        alive = state.osd_alive
        wear = state.osd_wear[candidates]
        n_alive = np.count_nonzero(alive)
        # ``x[alive].mean()`` bit for bit, minus its wrapper.
        wear_scale = np.add.reduce(state.osd_wear[alive]) / n_alive if n_alive else 0.0
        wear_norm = wear / wear_scale if wear_scale > 0 else wear
        terms = {"wear": cfg.wear_weight * wear_norm}
        if cfg.endurance:
            risk = state.wearout_risk()
            risk_scale = np.add.reduce(risk[alive]) / n_alive if n_alive else 0.0
            if risk_scale > 0:
                terms["wearout_risk"] = cfg.endurance_weight * (
                    risk[candidates] / risk_scale
                )
        return terms
