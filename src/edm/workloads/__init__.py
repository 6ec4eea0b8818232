"""Workload registry: the four named traces from the paper's evaluation,
one :data:`TRACES` row each."""

from edm.config import TRACES
from edm.workloads.base import SyntheticTrace
from edm.workloads.producer import traffic

#: A run's workload: the trace its config names.
make_workload = SyntheticTrace

__all__ = ["TRACES", "make_workload", "SyntheticTrace", "traffic"]
