import numpy as np
import pytest

from edm.config import SimConfig
from edm.engine import core
from edm.engine.state import ClusterState

# Shared tiny sizing: fast enough that a module can run dozens of full
# simulations, big enough that migrations and wear actually happen.
SMALL_CFG_KW = dict(
    workload="deasna",
    num_osds=4,
    policy="cmt",
    epochs=32,
    requests_per_epoch=512,
    chunks_per_osd=8,
)


def cfg_factory(**overrides) -> SimConfig:
    """Tiny :class:`SimConfig` with per-test overrides.

    The one place test modules build configs from: importable directly for
    module-level helpers (``from conftest import cfg_factory``) and exposed
    as the ``make_cfg`` fixture, replacing the per-module
    ``SimConfig(**{**small_cfg.to_dict(), ...})`` boilerplate.
    """
    return SimConfig(**{**SMALL_CFG_KW, **overrides})


@pytest.fixture
def make_cfg():
    """Config factory fixture: ``make_cfg(policy="hdf", epochs=8)``."""
    return cfg_factory


@pytest.fixture
def small_cfg():
    """Tiny config for fast unit runs (the factory's defaults, unchanged)."""
    return cfg_factory()


@pytest.fixture
def blocks_of_one(monkeypatch):
    """Runs deliver every epoch as its own block, after its routing and
    before its migration round: for recorders that check live state."""
    monkeypatch.setattr(core, "EPOCH_BLOCK", 1)


def make_state(
    cfg: SimConfig,
    owner=None,
    heat=None,
    wear=None,
    load_ema=None,
    epoch: int = 100,
) -> ClusterState:
    """Hand-crafted cluster state for policy unit tests."""
    c, n = cfg.num_chunks, cfg.num_osds
    return ClusterState(
        num_osds=n,
        num_chunks=c,
        chunk_owner=np.asarray(
            owner if owner is not None else np.arange(c) // cfg.chunks_per_osd,
            dtype=np.int32,
        ),
        chunk_heat=np.asarray(heat if heat is not None else np.ones(c), dtype=np.float64),
        chunk_last_migrated=np.full(c, -(10**9), dtype=np.int64),
        osd_wear=np.asarray(wear if wear is not None else np.zeros(n), dtype=np.float64),
        osd_load_ema=np.asarray(
            load_ema if load_ema is not None else np.ones(n), dtype=np.float64
        ),
        epoch=epoch,
    )
