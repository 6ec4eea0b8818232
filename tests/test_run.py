"""``Run``: the epoch stepper behind ``simulate``.

A run advanced on traffic drawn outside it must equal ``simulate`` bit for
bit, metrics and time series alike; a run driven only through ``advance``
must never fork a traffic producer; and runs stepped alternately in one
process must not share state through module globals.
"""

import os
import signal

import numpy as np
import pytest

from conftest import cfg_factory
from edm.config import rng_seed_sequence
from edm.engine.core import Run, simulate
from edm.service import runtime as service_runtime
from edm.telemetry import TimeSeriesRecorder
from edm.telemetry.timeseries import _ARRAY_FIELDS
from edm.workloads import make_workload, producer, traffic

CASES = {
    "healthy-cmt": dict(policy="cmt"),
    "all-layers-cmt": dict(
        policy="cmt", num_osds=8, epochs=48, faults="fail:1@12",
        endurance="pe:2000", topology="add:2@8;drain:5@20",
    ),
    "faulted-ec": dict(
        policy="hdf", num_osds=8, redundancy="ec:4+2", faults="fail:2@10",
        service="rate:300;queue:32",
    ),
}

# Two differently sized serviced, faulted, rated, elastic runs.
INTERLEAVED = (
    dict(
        policy="hdf", num_osds=8, epochs=48, service="rate:200;queue:16",
        faults="fail:1@12;slow:2@4x0.5", endurance="pe:2000",
        topology="add:2@8/rate:400;drain:5@20",
    ),
    dict(
        policy="cmt", num_osds=6, epochs=48, requests_per_epoch=4096,
        service="rate:2000;queue:4096", faults="hiccup:3@10+4x0.25",
        endurance="pe:9000", topology="add:1@16/cap:2,rate:4000",
    ),
)


@pytest.fixture(autouse=True)
def deadline():
    """Turn a hung traffic producer into a failure instead of a hung suite."""

    def expire(signum, frame):
        raise TimeoutError("run hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def outside_traffic(cfg):
    """The run's own traffic, drawn by a separate iterator."""
    wl_ss = rng_seed_sequence(cfg).spawn(2)[0]
    return traffic(make_workload(cfg, np.random.default_rng(wl_ss)), cfg.epochs)


def series_equal(a, b) -> bool:
    return a.meta == b.meta and all(
        np.array_equal(getattr(a, k), getattr(b, k)) for k in _ARRAY_FIELDS
    )


@pytest.mark.parametrize("case", CASES)
def test_advance_on_outside_traffic_equals_simulate(case):
    cfg = cfg_factory(**CASES[case])
    ref_rec = TimeSeriesRecorder()
    expected = simulate(cfg, recorders=(ref_rec,))

    rec = TimeSeriesRecorder()
    run = Run(cfg, recorders=(rec,))
    draws = outside_traffic(cfg)
    try:
        for counts, writes in draws:
            run.advance(counts, writes)
    finally:
        draws.close()
    with pytest.raises(RuntimeError, match=f"no epoch {cfg.epochs}"):
        run.advance(counts, writes)
    assert run.finalize() == expected
    assert series_equal(rec.series, ref_rec.series)


def test_advance_only_run_never_forks(monkeypatch):
    cfg = cfg_factory(**CASES["all-layers-cmt"])
    expected = simulate(cfg)
    # Draw the traffic before the selector is forced onto the producer.
    wl = make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg).spawn(2)[0]))
    epochs = [tuple(a.copy() for a in wl.epoch_counts(e)) for e in range(cfg.epochs)]

    forks = []

    def no_fork():
        forks.append(True)
        raise OSError("fork forbidden in this test")

    monkeypatch.setattr(producer, "inline_reason", lambda num_chunks, epochs: None)
    monkeypatch.setattr(os, "fork", no_fork)
    run = Run(cfg)
    for counts, writes in epochs:
        run.advance(counts, writes)
    assert run.finalize() == expected
    assert forks == []
    # The same run stepped on its own traffic would fork on the first draw.
    with pytest.raises(OSError, match="fork forbidden"):
        Run(cfg).step()
    assert forks == [True]


@pytest.mark.parametrize("path", ["inline", "produced"])
def test_interleaved_runs_stay_independent(monkeypatch, path):
    cfgs = [cfg_factory(**kw) for kw in INTERLEAVED]
    expected = [simulate(cfg) for cfg in cfgs]
    # A tiny latency ramp that both runs keep growing; with forced
    # producers, two are alive at once.
    monkeypatch.setattr(service_runtime, "_RAMP", np.arange(1.0, 3.0))
    reason = "forced" if path == "inline" else None
    monkeypatch.setattr(producer, "inline_reason", lambda num_chunks, epochs: reason)
    runs = [Run(cfg) for cfg in cfgs]
    try:
        for _ in range(cfgs[0].epochs):
            for run in runs:
                run.step()
    finally:
        for run in runs:
            run.close()
    assert [run.finalize() for run in runs] == expected
    assert service_runtime._RAMP.size > 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
