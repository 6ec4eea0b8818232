"""Workload registry: the four named traces from the paper's evaluation."""

from __future__ import annotations

import numpy as np

from edm.config import SimConfig
from edm.workloads.base import SyntheticTrace
from edm.workloads.deasna import DeasnaTrace
from edm.workloads.deasna2 import Deasna2Trace
from edm.workloads.lair62 import Lair62Trace
from edm.workloads.lair62b import Lair62bTrace
from edm.workloads.producer import traffic

TRACES: dict[str, type[SyntheticTrace]] = {
    cls.name: cls for cls in (DeasnaTrace, Deasna2Trace, Lair62Trace, Lair62bTrace)
}


def make_workload(cfg: SimConfig, rng: np.random.Generator) -> SyntheticTrace:
    try:
        cls = TRACES[cfg.workload]
    except KeyError:
        raise ValueError(f"unknown workload {cfg.workload!r}; have {sorted(TRACES)}") from None
    return cls(cfg, rng)


__all__ = ["TRACES", "make_workload", "SyntheticTrace", "traffic"]
