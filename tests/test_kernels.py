"""Epoch kernel and per-chunk re-placement: bit-identity guarantees.

The fused kernel (src/edm/engine/kernels.py) and the failure re-placement
(engine/core.py) both promise *byte-equal* results against their reference
implementations.  This module pins those promises:

  * the fused epoch update matches an unfused transcription of the same
    routing, wear and EMA math, byte for byte;
  * whole runs through the engine's re-placement (``_assign_sequential``)
    match runs that re-place each chunk with the per-chunk reference;
  * migration wear accrual via bincount matches the per-element scatter it
    replaced, duplicates included.
"""

import json
import hashlib

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.engine import core as core_mod
from edm.engine.core import apply_migrations, simulate
from edm.engine.kernels import EpochKernel
from replacement_reference import assign_reference

# Samples chosen to exercise every engine path that the kernel and
# re-placement touch: all four policies, a drifting and a bursty
# workload, a mid-run failure burst, and a rated cluster that wears out.
SAMPLES = {
    "baseline-deasna": dict(policy="baseline"),
    "cdf-deasna2": dict(policy="cdf", workload="deasna2"),
    "hdf-lair62": dict(policy="hdf", workload="lair62"),
    "cmt-lair62b": dict(policy="cmt", workload="lair62b"),
    "cmt-faulted": dict(policy="cmt", faults="fail:1@8;slow:2@4x0.5"),
    "hdf-faulted": dict(policy="hdf", faults="fail:3@10", num_osds=8),
    "cmt-rated": dict(policy="cmt", endurance="pe:900"),
    "cmt-degraded-rated": dict(policy="cmt", faults="fail:1@8", endurance="pe:900"),
}


def digest(metrics: dict) -> str:
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Engine re-placement vs the per-chunk reference loop


@pytest.mark.parametrize(
    "name", [n for n in sorted(SAMPLES) if "faulted" in n or "rated" in n]
)
def test_batched_replacement_matches_loop(name, monkeypatch):
    cfg = cfg_factory(**{"num_osds": 8, "seed": 7, **SAMPLES[name]})
    real = core_mod._assign_sequential
    bursts = []

    def counted(*args):
        bursts.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(core_mod, "_assign_sequential", counted)
    fast = simulate(cfg)
    assert bursts, "no re-placement burst ran"

    # The plain reference loop: every chunk scored from scratch over its
    # own candidate set.
    monkeypatch.setattr(core_mod, "_assign_sequential", assign_reference)
    slow = simulate(cfg)
    assert fast == slow
    assert digest(fast) == digest(slow)


# ---------------------------------------------------------------------------
# Migration wear accrual: bincount vs per-element scatter


def test_apply_migrations_duplicate_destination_wear(small_cfg):
    cfg = small_cfg
    state = make_state(cfg)
    # Pile many chunks onto one destination plus a couple elsewhere --
    # the exact shape np.add.at handled element-by-element.
    # Owners: chunks 0-7 on OSD 0, 8-15 on OSD 1 (make_state layout); every
    # move below is real, with four piling onto OSD 3.
    moves = np.array([[0, 3], [1, 3], [2, 3], [8, 2], [9, 3], [10, 2]])
    before = state.osd_wear.copy()
    ref = before.copy()
    np.add.at(ref, moves[:, 1], cfg.migration_write_cost * cfg.wear_per_write)
    applied = apply_migrations(state, moves, cfg)
    assert applied == len(moves)
    np.testing.assert_array_equal(state.osd_wear, ref)
    assert state.osd_wear[3] == before[3] + 4 * cfg.migration_write_cost * cfg.wear_per_write


def test_apply_migrations_wear_skips_dropped_moves(small_cfg):
    state = make_state(small_cfg)
    owner0 = int(state.chunk_owner[0])
    moves = np.array([
        [0, (owner0 + 1) % small_cfg.num_osds],  # real move
        [0, (owner0 + 2) % small_cfg.num_osds],  # duplicate chunk: dropped
        [1, int(state.chunk_owner[1])],          # no-op: dropped
        [2, small_cfg.num_osds + 5],             # out of range: dropped
    ])
    applied = apply_migrations(state, moves, small_cfg)
    assert applied == 1
    per_move = small_cfg.migration_write_cost * small_cfg.wear_per_write
    assert state.osd_wear.sum() == pytest.approx(per_move)


# ---------------------------------------------------------------------------
# Workload float64 emission (the kernel consumes weights without casts)


def test_epoch_counts_emits_reused_float64_buffers(small_cfg):
    from edm.workloads import make_workload

    wl = make_workload(small_cfg, np.random.default_rng(1))
    c0, w0 = wl.epoch_counts(0)
    assert c0.dtype == np.float64 and w0.dtype == np.float64
    assert np.array_equal(c0, np.round(c0))  # integer-valued
    assert np.array_equal(w0, np.round(w0))
    assert c0.sum() == small_cfg.requests_per_epoch
    assert (w0 <= c0).all()
    c1, w1 = wl.epoch_counts(1)
    assert c1 is c0 and w1 is w0  # per-instance buffers, rewritten in place


def test_kernel_epoch_update_matches_unfused_reference(small_cfg):
    # The fused kernel vs a straightforward transcription of the
    # pre-fusion engine math, same state, byte-equal everywhere.
    cfg = small_cfg
    rng = np.random.default_rng(5)
    state = make_state(cfg, heat=rng.uniform(0, 2, cfg.num_chunks))
    ref = make_state(cfg, heat=state.chunk_heat.copy())
    ref.osd_load_ema[:] = state.osd_load_ema
    counts = rng.integers(0, 50, cfg.num_chunks).astype(np.float64)
    writes = np.minimum(counts, rng.integers(0, 20, cfg.num_chunks)).astype(np.float64)

    load = EpochKernel(cfg).epoch_update(state, counts, writes)

    ref_load = np.bincount(ref.chunk_owner, weights=counts, minlength=cfg.num_osds)
    ref.osd_wear += (
        np.bincount(ref.chunk_owner, weights=writes, minlength=cfg.num_osds)
        * cfg.wear_per_write
    )
    a = cfg.heat_alpha
    ref.chunk_heat = (1.0 - a) * ref.chunk_heat + a * counts
    la = cfg.load_alpha
    ref.osd_load_ema = (1.0 - la) * ref.osd_load_ema + la * ref_load

    assert load.tobytes() == ref_load.tobytes()
    assert state.osd_wear.tobytes() == ref.osd_wear.tobytes()
    assert state.chunk_heat.tobytes() == ref.chunk_heat.tobytes()
    assert state.osd_load_ema.tobytes() == ref.osd_load_ema.tobytes()
