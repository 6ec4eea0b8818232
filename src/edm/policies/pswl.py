"""PSWL: probability-sensitive wear leveling (cf. PS-WL).

Destination scoring treats each candidate's *consumed-life fraction* --
erase cycles already spent over the rated P/E budget -- as a wear-out
probability and penalizes it quadratically: a drive at 80% of its budget is
far more than twice as costly as one at 40%, so migration writes steer
superlinearly away from near-worn devices (where CMT's linear wear term
only nudges).  With an endurance model configured, an expected-remaining-
life term joins the score: the bounded wear-out risk ``1 / (1 + predicted
epochs to wear-out)``, penalizing drives whose *rate* of wear -- not just
accumulated wear -- puts them close to dying.

Unrated clusters have no budget to take fractions of, so the wear term
falls back to CMT-style alive-mean normalization (linear): PSWL still
wear-levels, it just loses the probability shaping that needs a rating.

Chunk order is hottest-first (like CMT/HDF): hot chunks carry the follow-on
write traffic whose placement wear leveling exists to steer.
"""

import numpy as np

from edm.policies.base import NormalizedScorePolicy


class PswlPolicy(NormalizedScorePolicy):
    name = "pswl"

    def static_destination_terms(self, candidates, state, cfg):
        alive = state.osd_alive
        rated = state.osd_rated_life
        if alive.any() and np.isfinite(rated[alive]).any():
            # Consumed-life fraction in [0, 1] (above 1 only for a
            # last-survivor overdraft); an unrated candidate in a mixed
            # cluster divides by inf and scores 0 -- fresh by definition.
            p = state.osd_wear[candidates] / rated[candidates]
            wear_term = cfg.wear_weight * (p * p)
        else:
            wear = state.osd_wear[candidates]
            n_alive = np.count_nonzero(alive)
            # ``x[alive].mean()`` bit for bit, minus its wrapper.
            scale = np.add.reduce(state.osd_wear[alive]) / n_alive if n_alive else 0.0
            wear_norm = wear / scale if scale > 0 else wear
            wear_term = cfg.wear_weight * wear_norm
        terms = {"wear_prob": wear_term}
        if cfg.endurance:
            # Bounded in [0, 1]; no cluster-mean normalization -- the
            # absolute proximity to wear-out is the signal, and a mean over
            # mostly-healthy drives would dilute the one that matters.
            terms["life"] = cfg.endurance_weight * state.wearout_risk()[candidates]
        return terms
