"""baseline: never migrate.

Establishes the unmitigated load imbalance and natural wear profile every
other policy is judged against.
"""

from edm.policies.base import EMPTY_MOVES, MigrationPolicy


class BaselinePolicy(MigrationPolicy):
    name = "baseline"

    def select(self, state, cfg, emit=None):
        return EMPTY_MOVES
