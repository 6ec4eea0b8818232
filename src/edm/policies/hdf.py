"""HDF: hot-data-first migration.

Moves the hottest eligible chunks off overloaded OSDs to the least-loaded
OSD.  Rebalances in few moves but concentrates write traffic -- and hence
wear -- on whichever SSD happens to be coldest, ignoring endurance.
"""

from edm.policies.base import ThresholdPolicy


class HdfPolicy(ThresholdPolicy):
    name = "hdf"
