"""Analytic oracles: the service queue and routed wear against exact
expectations, independent of the engine's code.

tests/service_reference.py is the service step again in scalar form, so it
proves two implementations agree, not that either models a queue.  Here
the expectation comes from the model itself.  On ``lair62`` (static hot
set, constant epoch volume) under ``baseline`` on a static, healthy
cluster nothing ever migrates, so OSD ``j``'s arrivals are iid
Binomial(V, q_j) epoch after epoch, where ``q_j`` sums its chunks'
popularity.  With an integer service rate ``r`` and queue bound ``Q`` its
post-service depth is a Markov chain on 0..Q:

    room = Q + r - d,  accepted = min(A, room),  d' = max(d + accepted - r, 0)

and the ``i``-th request accepted at depth ``d`` waits ``(d + i + 1) / r``
epochs.  Iterating the chain's distribution exactly from depth 0 over the
run's epochs gives the expected ``queue_depth_mean``, dropped fraction and
``service_lat_mean`` with no burn-in bias; the seeds' mean must sit within
4 standard errors of it in three regimes around the hottest OSD's mean
load.  Wear needs no chain: each OSD accrues ``T * V * q_j * write_ratio``
in expectation.
"""

import functools
import math

import numpy as np
import pytest

from edm.config import SimConfig
from edm.engine.core import simulate
from edm.workloads import TRACES

N, CHUNKS_PER_OSD, V, T = 8, 64, 512, 600
SEEDS = range(1, 13)
BASE = dict(workload="lair62", policy="baseline", num_osds=N, chunks_per_osd=CHUNKS_PER_OSD,
            requests_per_epoch=V, epochs=T)
# The hottest OSD's mean load is about 426.5 requests per epoch.
REGIMES = {
    "under": "rate:440;queue:32",
    "near": "rate:430;queue:64",
    "over": "rate:400;queue:16",
}


def osd_shares() -> np.ndarray:
    """``q_j``: each OSD's share of the Zipf popularity under contiguous
    block placement (chunk ``i`` on OSD ``i // chunks_per_osd``)."""
    theta = TRACES["lair62"].base_zipf + SimConfig().skew
    p = np.arange(1, N * CHUNKS_PER_OSD + 1, dtype=np.float64) ** -theta
    return (p / p.sum()).reshape(N, CHUNKS_PER_OSD).sum(axis=1)


def binomial_pmf(n: int, prob: float) -> np.ndarray:
    """P(A = a) for a = 0..n, from log-gamma."""
    log_choose = [math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(n - a + 1)
                  for a in range(n + 1)]
    a = np.arange(n + 1)
    return np.exp(np.array(log_choose) + a * math.log(prob) + (n - a) * math.log1p(-prob))


@functools.cache
def chain_expectations(spec: str) -> dict:
    """Exact expected depth mean, dropped fraction and latency mean under
    the ``rate:R;queue:Q`` service ``spec``."""
    rate, qbound = (int(clause.split(":")[1]) for clause in spec.split(";"))
    depth_sum = accepted_sum = lat_sum = 0.0
    arrivals = np.arange(V + 1)
    d = np.arange(qbound + 1)
    for q in osd_shares():
        pmf = binomial_pmf(V, q)
        accepted = np.minimum(arrivals, (qbound + rate - d)[:, None])  # [depth, arrivals]
        following = np.maximum(d[:, None] + accepted - rate, 0)
        step = np.stack([np.bincount(row, pmf, qbound + 1) for row in following])
        # Per starting depth: expected post-service depth, accepted count,
        # and summed latency (d + 1)/r + ... + (d + accepted)/r.
        e_depth = step @ d
        e_accepted = accepted @ pmf
        e_lat = (accepted * (d[:, None] + (accepted + 1) / 2) / rate) @ pmf
        dist = np.zeros(qbound + 1)
        dist[0] = 1.0
        for _ in range(T):
            depth_sum += dist @ e_depth
            accepted_sum += dist @ e_accepted
            lat_sum += dist @ e_lat
            dist = dist @ step
    return {
        "queue_depth_mean": depth_sum / (T * N),
        "dropped_frac": 1.0 - accepted_sum / (T * V),
        "service_lat_mean": lat_sum / accepted_sum,
    }


@pytest.fixture(scope="module")
def runs():
    """Every regime's metrics for every seed."""
    return {
        regime: [simulate(SimConfig(**BASE, service=spec, seed=seed)) for seed in SEEDS]
        for regime, spec in REGIMES.items()
    }


def assert_within(samples, expected, resolution, label):
    """The seeds' mean within 4 standard errors of ``expected``.  Seeds
    with no spread at all (say, no request ever dropped) are held to the
    metric's ``resolution`` per seed instead: one request, or one unit of
    depth, over all seeds' epochs together."""
    samples = np.asarray(samples, dtype=np.float64)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    tol = 4.0 * se + resolution / samples.size + 1e-12 * abs(expected)
    assert abs(samples.mean() - expected) <= tol, (label, samples.mean(), expected, se)


@pytest.mark.parametrize("regime", REGIMES)
def test_service_queue_matches_the_exact_depth_chain(runs, regime):
    expected = chain_expectations(REGIMES[regime])
    metrics = runs[regime]
    assert all(m["migrations_total"] == 0 for m in metrics)  # nothing but arrivals
    observed = {
        "queue_depth_mean": [m["queue_depth_mean"] for m in metrics],
        "dropped_frac": [m["service_dropped_total"] / m["service_requests_total"]
                         for m in metrics],
        "service_lat_mean": [m["service_lat_mean"] for m in metrics],
    }
    resolution = {"queue_depth_mean": 1.0 / (T * N), "dropped_frac": 1.0 / (T * V),
                  "service_lat_mean": 0.0}
    for key, samples in observed.items():
        assert_within(samples, expected[key], resolution[key], (regime, key))


def test_regimes_span_saturation():
    """The hottest OSD's queue is mostly empty, often busy, and full."""
    under, near, over = (chain_expectations(spec) for spec in REGIMES.values())
    assert under["dropped_frac"] < 1e-6 < near["dropped_frac"] < 1e-3 < over["dropped_frac"]
    assert under["queue_depth_mean"] < near["queue_depth_mean"] < over["queue_depth_mean"]


def test_routed_wear_matches_its_expectation(runs):
    """Per-OSD wear: T * V * q_j * write_ratio, and no service spec moves it."""
    wear = np.array([m["per_osd_wear"] for m in runs["under"]])
    for regime in ("near", "over"):
        assert np.array_equal(np.array([m["per_osd_wear"] for m in runs[regime]]), wear)
    expected = T * V * osd_shares() * TRACES["lair62"].write_ratio
    for j in range(N):
        assert_within(wear[:, j], expected[j], 1.0, ("wear", j))
