"""Cache layer: warm hits are exact, stale/corrupt pickles are invalidated."""

import pickle

import pytest

from conftest import cfg_factory
from edm.cache import ResultCache
from edm.config import SimConfig, config_hash, rng_seed_sequence
from edm.engine.core import simulate


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_miss_then_store_then_exact_hit(cache, small_cfg):
    assert cache.load(small_cfg) is None
    metrics = simulate(small_cfg)
    cache.store(small_cfg, metrics)
    assert cache.load(small_cfg) == metrics
    assert cache.hits == 1


def test_filename_matches_historical_key_format(cache):
    cfg = SimConfig(workload="lair62b", num_osds=20, policy="cmt", skew=0.02, seed=54321)
    assert cache.path_for(cfg).name == "lair62b-20osd-cmt-s0.02-r54321.pkl"


# Literal cache keys and workload seeds, one healthy config and one per
# scenario layer: a config-field deletion or hash refactor must leave every
# existing cache entry reachable and every workload stream unchanged.
HEALTHY_ENTROPY = [12345, 2842577603, 1903860486, 582632262, 4254718239]
KEY_PINS = {
    "healthy": (
        {},
        "deasna-4osd-cmt-s0.02-r12345",
        "b41981ad5aade24e02872f7c0ab28056391d247ecf796084eb4d6b1aacffa497",
        HEALTHY_ENTROPY,
    ),
    "faults": (
        dict(faults="fail:1@8;slow:2@4x0.5"),
        "deasna-4osd-cmt-s0.02-r12345-f01b92dda",
        "4e7e8b73a79504e3c354717233afefa0e7df5099dae97f3a8ae7a88ca90ae51c",
        HEALTHY_ENTROPY,
    ),
    "endurance": (
        dict(endurance="pe:900"),
        "deasna-4osd-cmt-s0.02-r12345-ecd6c549e",
        "94f87e4fab2a1d23c09cbe468b637f4c3415d5edf09264e1fe300ebf580f6c33",
        HEALTHY_ENTROPY,
    ),
    "service": (
        dict(service="rate:800;queue:64"),
        "deasna-4osd-cmt-s0.02-r12345-q87a56a93",
        "8d5e0efee741134e84122894a109c75db2605d96352ca5778eba95d538cbff12",
        HEALTHY_ENTROPY,
    ),
    "topology": (
        dict(topology="add:2@16/cap:2,rate:1600;drain:0@24"),
        "deasna-4osd-cmt-s0.02-r12345-t6c1bad93",
        "21fe363e7980dfb41fef6a896075a542654d7d6623d48724b2ac87418ea40c3d",
        HEALTHY_ENTROPY,
    ),
    "redundancy": (
        dict(num_osds=8, redundancy="ec:4+2"),
        "deasna-8osd-cmt-s0.02-r12345-g6ada8e4b",
        "016738ebfe7c9144b6d50975aab713906791b4943cdeb6db69c260e0eb2f780f",
        [12345, 45134542, 3952897244, 25106952, 191932616],
    ),
}


@pytest.mark.parametrize("name", sorted(KEY_PINS))
def test_cache_keys_and_seeds_pinned(name):
    overrides, stem, digest, entropy = KEY_PINS[name]
    cfg = cfg_factory(**overrides)
    assert cfg.cache_name() == stem
    assert config_hash(cfg) == digest
    assert rng_seed_sequence(cfg).entropy == entropy


def test_config_hash_mismatch_invalidates_stale_pickle(cache, small_cfg, make_cfg):
    metrics = simulate(small_cfg)
    path = cache.store(small_cfg, metrics)
    # Same cache filename, different engine knobs -> same path, different hash.
    changed = make_cfg(heat_alpha=0.9)
    assert cache.path_for(changed) == path
    assert cache.load(changed) is None
    assert cache.invalidated == 1
    assert not path.exists()  # stale pickle removed, not silently returned


def test_corrupt_pickle_invalidated(cache, small_cfg):
    path = cache.store(small_cfg, {"x": 1})
    path.write_bytes(b"\x04garbage not a pickle")
    assert cache.load(small_cfg) is None
    assert cache.invalidated == 1
    assert not path.exists()


def test_foreign_payload_invalidated(cache, small_cfg):
    # A well-formed pickle that is not our payload schema (e.g. the truncated
    # artifacts the seed repo shipped with).
    path = cache.path_for(small_cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"workload": "deasna", "policy": "cmt"}))
    assert cache.load(small_cfg) is None
    assert not path.exists()


def test_store_is_atomic_no_tmp_left(cache, small_cfg):
    cache.store(small_cfg, {"x": 1})
    leftovers = list(cache.cache_dir.glob("*.tmp"))
    assert leftovers == []


def test_payload_records_hash_and_config(cache, small_cfg):
    path = cache.store(small_cfg, {"x": 1})
    payload = pickle.loads(path.read_bytes())
    assert payload["config_hash"] == config_hash(small_cfg)
    assert payload["config"] == small_cfg.to_dict()


# --- counter accounting across sweeps ---------------------------------------

from edm.sweep import default_grid, sweep  # noqa: E402

TINY = dict(epochs=8, requests_per_epoch=128, chunks_per_osd=8)


def counter_grid():
    return default_grid(
        workloads=("deasna",),
        osds=(4,),
        policies=("baseline", "cdf", "hdf", "cmt"),
        seeds=(1,),
        **TINY,
    )


def test_cold_sweep_counts_only_misses(tmp_path):
    res = sweep(counter_grid(), cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (0, 4, 0)
    assert res.simulated == 4


def test_warm_sweep_counts_only_hits(tmp_path):
    grid = counter_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (4, 0, 0)
    assert res.simulated == 0


def test_mixed_sweep_counts_hits_and_misses(tmp_path):
    grid = counter_grid()
    sweep(grid[:2], cache_dir=tmp_path, workers=1)  # pre-warm half
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses) == (2, 2)
    assert res.simulated == 2


def test_forced_sweep_probes_nothing(tmp_path):
    grid = counter_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    res = sweep(grid, cache_dir=tmp_path, workers=1, force=True)
    # force skips the cache probe entirely: no hits, no misses, all simulated.
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (0, 0, 0)
    assert res.simulated == len(grid)


def test_no_cache_sweep_reports_pending_as_misses():
    grid = counter_grid()[:3]
    res = sweep(grid, cache_dir=None, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (0, 3, 0)
    assert res.simulated == 3


def test_corrupt_entry_counts_invalidated_and_resimulates(tmp_path):
    grid = counter_grid()
    sweep(grid, cache_dir=tmp_path, workers=1)
    victim = ResultCache(tmp_path).path_for(grid[0])
    victim.write_bytes(b"\x00 not a pickle")
    res = sweep(grid, cache_dir=tmp_path, workers=1)
    assert (res.cache_hits, res.cache_misses, res.cache_invalidated) == (3, 1, 1)
    assert res.simulated == 1
    # The corrupt entry was rewritten with a good result.
    fresh = sweep(grid[:1], cache_dir=None, workers=1)
    assert ResultCache(tmp_path).load(grid[0]) == fresh.records[0]
