"""Cross-policy determinism regression: golden metrics hashes.

Each case hashes the full metrics dict (canonical JSON) of one fixed small
config.  The hashes are pinned to ENGINE_VERSION: any change to routing,
policy scoring, wear accounting, fault handling, or metric computation --
intended or not -- flips a digest and fails here.

If a failure is *intentional* (you changed engine semantics on purpose):
  1. bump ENGINE_VERSION in src/edm/config.py and document what changed,
  2. re-generate the digests below (the failure message prints the new one),
  3. update GOLDEN in the same commit as the semantic change.
Never update a digest without a version bump: an unexplained flip means the
engine silently stopped reproducing published results.

One sanctioned exception to the full bump: a fix confined to *serviced*
metrics may instead bump the ``service_metrics_rev`` marker inside
``SimConfig.config_hash`` (see src/edm/config.py).  That invalidates cache
entries for serviced configs only -- unserviced sweep caches survive -- and
correspondingly only the serviced digests below may be re-pinned in that
commit; every unserviced digest passing unchanged is the proof the fix
stayed confined.  Used by rev 2: dead OSDs had been counted as permanent
zeros in the queue-depth mean/CoV, and the latency histogram's top bin
conflated finite latencies with overflow (only the degraded serviced case
actually drifted; re-pinned under the same ENGINE_VERSION).
"""

import hashlib
import json

import pytest

from conftest import cfg_factory
from edm.config import ENGINE_VERSION, SimConfig
from edm.engine.core import simulate
from edm.telemetry import TimeSeriesRecorder
from edm.telemetry.timeseries import _ARRAY_FIELDS

PINNED_ENGINE_VERSION = 5

# The first five digests predate the service model (ENGINE_VERSION 4) and
# were NOT re-generated for version 5: unserviced configs must keep
# computing bit-identical metrics, so these very digests passing is the
# proof the service threading left the existing engine untouched.
GOLDEN = {
    "baseline": "204bf55851419b3ce608213e5ebc7695fe4159753d878af9728027e93e8975cd",
    "cdf": "18eeff315672328aed5db035f3a97a062d95b5e847094106c564416f15da7a64",
    "hdf": "7587520683ebd85a86a34428ec624a27dfd5854c2042302c0ac41dc52ec49215",
    "cmt": "4cc68da3d89eeaec163922899a83ecbfa1aac9a038eb6f7d99284664736bac10",
    "cmt-degraded-rated": "b27d481f49c3ab7265d1b077a8c99668af5015eacd5e98bc96753e2a35179800",
    "cmt-serviced": "e2c6339a16260cac5c46c1a8d6fbedbab2b47e0cc01932b17adca3dd1ab5b088",
    "cmt-serviced-degraded": "ba70cb4afea6bf81e31a79c1baef871bfd2bb311e7dabb94f2d7c4e94500894a",
    # Policy-zoo + redundancy digests, pinned under the same ENGINE_VERSION 5:
    # new policies and the redundancy layer are gated on new config fields,
    # so every pre-existing digest above passing *unchanged* is the proof the
    # zoo and the grouping layer left redundancy-free configs bit-identical.
    "pswl": "85263f92242f360578b3fd3e60234d4eda749cde768e36ca01161980ecb51b48",
    "consolidate": "ec401fdb09f0219a1a7214d3534c67bdd2ff0414422d955db418d4176a8e2a7d",
    "cmt-ec-degraded": "0db5bb16757551b68fecc0c88c6293e7b2793d9bb736995a0fc084cff17b06bd",
    # Pinned before the service step started binning latency runs instead
    # of single requests, on the engine that still binned per request.
    "cmt-serviced-overflow": "70ed8c570f9cc0753dfc2177ec792a363fa0314e36d52bd7c83d96ede1964543",
}

CASES = {
    "baseline": dict(policy="baseline"),
    "cdf": dict(policy="cdf"),
    "hdf": dict(policy="hdf"),
    "cmt": dict(policy="cmt"),
    # Degraded + rated: exercises fault re-placement, wear-out failures, and
    # the endurance metrics block in one config.
    "cmt-degraded-rated": dict(policy="cmt", faults="fail:1@8", endurance="pe:900"),
    # Serviced: exercises the queue recursion, the latency histogram, and
    # migration work injection (ENGINE_VERSION 5).
    "cmt-serviced": dict(policy="cmt", service="rate:120;queue:256"),
    # Serviced + degraded: lost-work accounting and re-placement bursts
    # landing in the survivors' queues.  Re-pinned under service_metrics_rev
    # 2 (queue-depth aggregates alive-masked; the other six digests did not
    # move).
    "cmt-serviced-degraded": dict(
        policy="cmt", service="rate:60;rate:200@4-7;queue:64", faults="fail:1@8"
    ),
    # Policy zoo: the wear-probability-sensitive and consolidation policies
    # on the same plain config as the four paper policies.
    "pswl": dict(policy="pswl"),
    "consolidate": dict(policy="consolidate"),
    # Redundant + degraded: group-constrained re-placement and the
    # reconstruction traffic block (ec:4+2 groups, one scheduled failure).
    "cmt-ec-degraded": dict(policy="cmt", faults="fail:1@8", redundancy="ec:4+2"),
    # Unbounded queue that reaches the histogram's overflow slot: p99 and
    # p999 are +inf (past the 1e4-epoch top edge), p50 is finite.
    "cmt-serviced-overflow": dict(
        policy="cmt", service="rate:2", epochs=32, requests_per_epoch=4096
    ),
}

# Every layer at once (benchmarks/run.py's ``composed`` workload at its
# --quick size), recorded every epoch: sha256 of each TimeSeries column.
# The benchmark's digests cover the metrics dict only, not the recorder.
# Pinned on the engine that still binned latencies per request.
COMPOSED_QUICK = dict(
    workload="deasna2", num_osds=20, policy="cmt", epochs=1024, requests_per_epoch=1024,
    service="rate:700;queue:64", topology="add:4@256/cap:2,rate:1600;drain:2@512",
    endurance="pe:200000", faults="fail:3@128;slow:5@64x0.5", seed=12345,
)
COMPOSED_QUICK_COLUMNS = {
    "epoch": "2f88e9ce00d238e7e011a7b140b413dcad818f1da41a721f914f1af604d0e217",
    "load": "97c9bb79cc867d039c059ebe931ef9ae3e5b89e7f771d0629f97c156eb07cf87",
    "load_cov": "4fc2d27b04d4328dcbdaadbff9d3bd1af55ecfe2c7b87ead0c78e2cb81dfa9d8",
    "load_peak_ratio": "0e8a7614452b9dc2403d8300c26b202454e1210e841b5f9e13f4a63c5640cc1f",
    "wear": "2157f2cab7381278723e5870fc364e2f5fa050324b18a986d486c1274beee639",
    "wear_cov": "b307abe1ec68100fec424770192a73fa9595df0f0390c150af220fb166fe62c0",
    "migrations": "76b7cfa962516bdf2632ca093caca6c1ccd7562beea9cd3c9835feb3e1be9e6f",
    "alive": "c4bf9848b73e8d24332276a718478e41088c99bde71cba938ab0e5cb735d39f5",
    "replacements": "33b7802ecdaf5f8dfebd0e9bcffc3a8fb55d0a80de94b5196dc3167c41f869ec",
    "remaining_life_min": "2ee711121682b1c024d3b1912ebc08453d249d26f195986c30c5da6c11b93deb",
    "remaining_life_mean": "38414b2d55f176d20a065e0210bbc9fed2ebb9bc3cdc34f161f95837d505896c",
    "queue_depth_mean": "49936cd85c4ad38debfd784a671a7be4687614e817844652b972db100e4468a7",
    "queue_depth_cov": "e64959b637a6bf726eb94ea3d2b98cce9882a7cca1eacca56cc8a8c4bcf33c06",
    "service_lat_mean": "6b37c0f99224cd88b82caa6a7103ad30fd0cba7d1e05722ce6ca741796beb2bf",
    "osds_total": "bee63d97d69ee680c8b7ef8efb59cced5362d45be85a7bdacd67674297d3d075",
}


def metrics_digest(metrics: dict) -> str:
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_goldens_match_engine_version():
    assert ENGINE_VERSION == PINNED_ENGINE_VERSION, (
        f"ENGINE_VERSION is now {ENGINE_VERSION} but the golden digests were "
        f"generated under {PINNED_ENGINE_VERSION}.  If the engine's semantics "
        f"changed intentionally, re-generate GOLDEN in test_golden_metrics.py "
        f"and bump PINNED_ENGINE_VERSION in the same commit."
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_metrics_hash(name):
    cfg = cfg_factory(num_osds=8, seed=7, **CASES[name])
    digest = metrics_digest(simulate(cfg))
    assert digest == GOLDEN[name], (
        f"metrics for {name!r} drifted: got {digest}, pinned {GOLDEN[name]}.\n"
        f"The engine no longer reproduces this config bit-for-bit.  If that "
        f"is intentional, bump ENGINE_VERSION (cache invalidation), update "
        f"PINNED_ENGINE_VERSION and this digest in the same commit, and note "
        f"the semantic change in the ENGINE_VERSION comment; otherwise this "
        f"is a determinism regression -- find it before merging."
    )


def test_composed_timeseries_columns():
    rec = TimeSeriesRecorder(record_every=1)
    simulate(SimConfig(**COMPOSED_QUICK), recorders=(rec,))
    assert set(COMPOSED_QUICK_COLUMNS) == set(_ARRAY_FIELDS)
    for name, pinned in COMPOSED_QUICK_COLUMNS.items():
        digest = hashlib.sha256(getattr(rec.series, name).tobytes()).hexdigest()
        assert digest == pinned, f"TimeSeries column {name!r} drifted: got {digest}"
