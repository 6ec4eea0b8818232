"""Workload generators: shape, determinism, skew, and trace personality."""

import numpy as np
import pytest

from edm.config import SimConfig, rng_seed_sequence
from edm.workloads import TRACES, make_workload


def wl_for(name, skew=0.02, seed=7, **kw):
    cfg = SimConfig(workload=name, num_osds=8, skew=skew, seed=seed, **kw)
    return make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg))), cfg


def test_registry_names():
    assert set(TRACES) == {"deasna", "deasna2", "lair62", "lair62b"}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_counts_shape_and_volume(name):
    wl, cfg = wl_for(name)
    counts, writes = wl.epoch_counts(0)
    assert counts.shape == (cfg.num_chunks,)
    assert writes.shape == (cfg.num_chunks,)
    assert (writes <= counts).all()
    if wl.burstiness == 0:
        assert counts.sum() == cfg.requests_per_epoch
    else:
        assert counts.sum() >= 1


@pytest.mark.parametrize("name", sorted(TRACES))
def test_deterministic_per_seed(name):
    a, _ = wl_for(name, seed=42)
    b, _ = wl_for(name, seed=42)
    for epoch in range(5):
        ca, wa = a.epoch_counts(epoch)
        cb, wb = b.epoch_counts(epoch)
        assert (ca == cb).all() and (wa == wb).all()


def test_different_traces_differ():
    a, _ = wl_for("deasna")
    b, _ = wl_for("lair62")
    assert not np.array_equal(a.epoch_counts(0)[0], b.epoch_counts(0)[0])


def test_higher_skew_concentrates_traffic():
    flat, _ = wl_for("lair62", skew=0.0)
    steep, _ = wl_for("lair62", skew=1.0)
    # Popularity mass on the single hottest chunk grows with the exponent.
    assert steep._base_probs.max() > flat._base_probs.max()
    assert np.isclose(steep._base_probs.sum(), 1.0)


def test_write_ratio_personality():
    # lair traces are read-heavy, deasna traces write-heavier.
    assert TRACES["lair62"].write_ratio < TRACES["deasna"].write_ratio
    assert TRACES["lair62b"].write_ratio < TRACES["deasna2"].write_ratio


def test_drift_rotates_hotspot():
    wl, cfg = wl_for("lair62b")
    p0 = wl.probs(0)
    p_shift = wl.probs(wl.drift_period)
    assert not np.array_equal(p0, p_shift)
    assert np.isclose(p_shift.sum(), 1.0)


def test_static_trace_has_fixed_hotspot():
    wl, _ = wl_for("lair62")
    assert np.array_equal(wl.probs(0), wl.probs(1000))


def reference_draw(wl, epoch):
    """The historical draw: one multinomial, then one dense binomial."""
    counts = wl.rng.multinomial(wl.epoch_volume(epoch), wl.probs(epoch))
    return counts, wl.rng.binomial(counts, wl.write_ratio)


def assert_draws_match_reference(name, num_osds, requests, epochs=64):
    """``draw`` against a twin generator running :func:`reference_draw`;
    returns how many epochs took the sparse split."""
    cfg = SimConfig(workload=name, num_osds=num_osds, requests_per_epoch=requests, seed=7)
    wl, twin = (make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg))) for _ in range(2))
    counts_out, writes_out = np.empty(cfg.num_chunks), np.empty(cfg.num_chunks)
    sparse = 0
    for epoch in range(epochs):
        wl.draw(epoch, counts_out, writes_out)
        counts, writes = reference_draw(twin, epoch)
        assert np.array_equal(counts_out, counts), epoch
        assert np.array_equal(writes_out, writes), epoch
        assert wl.rng.bit_generator.state == twin.rng.bit_generator.state, epoch
        sparse += np.count_nonzero(counts) * 4 <= counts.size
    return sparse


# (OSDs, requests per epoch, sparse): 64 chunks per OSD.  At 20 OSDs every
# trace requests over a quarter of its chunks each epoch (the dense split);
# at 200 OSDs most epochs request at most a quarter (the sparse split).
SPLIT_SIZES = [(20, 8192, False), (200, 8192, True), (200, 1024, True)]


@pytest.mark.parametrize("num_osds,requests,sparse", SPLIT_SIZES)
@pytest.mark.parametrize("name", sorted(TRACES))
def test_sparse_write_split_matches_dense(name, num_osds, requests, sparse):
    assert bool(assert_draws_match_reference(name, num_osds, requests)) == sparse


def test_bursty_epochs_take_both_split_branches():
    # deasna2's volume swings epoch to epoch, so its requested share
    # crosses the quarter line in both directions.
    sparse = assert_draws_match_reference("deasna2", 50, 2048)
    assert 0 < sparse < 64
