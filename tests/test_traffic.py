"""Traffic iterator: the forked producer yields exactly the inline draws.

``edm.workloads.traffic`` draws each epoch inline or runs the same draw
routine ahead of the engine in a forked producer.  These tests force the
producer (the selector is patched) and check it epoch by epoch against
``epoch_counts``, across the flow-control boundaries of the ring, through
``simulate``, and on every failure path: no run may hang or leave a child
behind.
"""

import logging
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

from conftest import cfg_factory
from edm.config import rng_seed_sequence
from edm.engine.core import simulate
from edm.telemetry import Recorder
from edm.workloads import TRACES, make_workload, producer, traffic

#: Run lengths around a ring of ``d`` slots, by test id.
EPOCH_COUNTS = {
    "1": lambda d: 1,
    "3": lambda d: 3,
    "d-1": lambda d: d - 1,
    "d": lambda d: d,
    "d+1": lambda d: d + 1,
    "2d+3": lambda d: 2 * d + 3,
}


def fresh_trace(workload, **kw):
    cfg = cfg_factory(workload=workload, **kw)
    return make_workload(cfg, np.random.default_rng(rng_seed_sequence(cfg)))


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture(autouse=True)
def deadline():
    """Turn a flow-control deadlock into a failure instead of a hung suite."""

    def expire(signum, frame):
        raise TimeoutError("traffic iterator hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def force_producer(monkeypatch):
    monkeypatch.setattr(producer, "inline_reason", lambda num_chunks, epochs: None)


@pytest.fixture
def path_log():
    """Messages the ``edm.workloads`` logger emits at DEBUG."""
    logger = logging.getLogger("edm.workloads")
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    yield messages
    logger.removeHandler(handler)
    logger.setLevel(old_level)


def produced_run(monkeypatch, workload, epochs, depth):
    """Copies of every epoch a forced producer yields from a ``depth``-slot ring."""
    monkeypatch.setattr(producer, "ring_depth", lambda num_chunks: depth)
    trace = fresh_trace(workload, epochs=epochs)
    before = trace.rng.bit_generator.state
    draws = traffic(trace, epochs)
    try:
        got = [(c.copy(), w.copy()) for c, w in draws]
    finally:
        draws.close()
    # The child owned the generator: the parent's copy never advanced.
    assert trace.rng.bit_generator.state == before
    return got


@pytest.mark.parametrize("depth", [4, 5, 16])
@pytest.mark.parametrize("epochs", EPOCH_COUNTS)
@pytest.mark.parametrize("workload", sorted(TRACES))
def test_producer_matches_epoch_counts(monkeypatch, force_producer, workload, epochs, depth):
    n = EPOCH_COUNTS[epochs](depth)
    got = produced_run(monkeypatch, workload, n, depth)
    ref = fresh_trace(workload, epochs=n)
    assert len(got) == n
    for epoch, (counts, writes) in enumerate(got):
        want_counts, want_writes = ref.epoch_counts(epoch)
        assert counts.dtype == np.float64 and writes.dtype == np.float64
        assert np.array_equal(counts, want_counts), epoch
        assert np.array_equal(writes, want_writes), epoch
    assert no_children_left()


COMPOSED = dict(
    workload="deasna2", num_osds=20, chunks_per_osd=64, policy="cmt", epochs=1024,
    requests_per_epoch=8192, service="rate:700;queue:64",
    topology="add:4@256/cap:2,rate:1600;drain:2@512",
    endurance="pe:200000", faults="fail:3@128;slow:5@64x0.5",
)


def test_simulate_identical_on_both_paths(monkeypatch, path_log):
    cfg = cfg_factory(**COMPOSED)
    monkeypatch.setattr(producer, "inline_reason", lambda num_chunks, epochs: "forced")
    inline = simulate(cfg)
    assert path_log == ["traffic drawn inline: forced"]
    monkeypatch.setattr(producer, "inline_reason", lambda num_chunks, epochs: None)
    produced = simulate(cfg)
    assert re.fullmatch(r"traffic producer pid \d+, ring 16 x 20480 bytes", path_log[1])
    assert produced == inline
    assert no_children_left()


class Boom(Exception):
    pass


class RaisesAt(Recorder):
    def __init__(self, epoch):
        self.epoch = epoch

    def on_block(self, state, block):
        (epoch,) = block.epochs
        if epoch == self.epoch:
            raise Boom(f"recorder failed at epoch {epoch}")


@pytest.mark.usefixtures("blocks_of_one")
@pytest.mark.parametrize("at", [0, 5, 47])
def test_recorder_exception_propagates_and_reaps(force_producer, at):
    cfg = cfg_factory(epochs=48)
    with pytest.raises(Boom, match=f"epoch {at}") as raised:
        simulate(cfg, recorders=(RaisesAt(at),))
    # Reaped by simulate itself, not when the traceback's frames are freed.
    assert raised.tb is not None and no_children_left()


class FlakyRng:
    """A Generator whose ``multinomial`` raises on its ``fail_at``-th call."""

    def __init__(self, rng, fail_at):
        self._rng = rng
        self._calls = 0
        self._fail_at = fail_at

    def multinomial(self, *args):
        if self._calls == self._fail_at:
            raise ValueError("injected multinomial failure")
        self._calls += 1
        return self._rng.multinomial(*args)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("k", [0, 3, 17])
def test_producer_failure_names_the_epoch(force_producer, k):
    trace = fresh_trace("deasna2", epochs=32)
    trace.rng = FlakyRng(trace.rng, k)
    ref = fresh_trace("deasna2", epochs=32)
    draws = traffic(trace, 32)
    try:
        for epoch in range(k):
            counts, writes = next(draws)
            assert np.array_equal(counts, ref.epoch_counts(epoch)[0])
        with pytest.raises(RuntimeError, match=f"at epoch {k}: ValueError: injected"):
            next(draws)
    finally:
        draws.close()
    assert no_children_left()


def test_closing_an_early_producer_does_not_hang(monkeypatch, force_producer):
    # The first producer fills its ring and waits for credits; the second
    # is forked after it and must not hold the first one's pipes open.
    monkeypatch.setattr(producer, "ring_depth", lambda num_chunks: 4)
    first = traffic(fresh_trace("deasna", epochs=64), 64)
    next(first)
    second = traffic(fresh_trace("lair62", epochs=64), 64)
    next(second)
    first.close()
    ref = fresh_trace("lair62", epochs=64)
    ref.epoch_counts(0)
    for epoch in range(1, 64):
        assert np.array_equal(next(second)[0], ref.epoch_counts(epoch)[0])
    second.close()
    assert no_children_left()


def test_ignored_sigchld_is_tolerated(force_producer):
    # With SIGCHLD ignored the kernel reaps the producer, and waitpid fails.
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = [counts.copy() for counts, _ in traffic(fresh_trace("deasna"), 8)]
    finally:
        signal.signal(signal.SIGCHLD, old)
    ref = fresh_trace("deasna")
    assert all(np.array_equal(c, ref.epoch_counts(e)[0]) for e, c in enumerate(got))


@pytest.fixture
def roomy_host(monkeypatch):
    """Two CPUs, one thread: only the run's size decides."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(producer.threading, "active_count", lambda: 1)


def test_selector_forks_for_a_composed_run(roomy_host):
    assert producer.inline_reason(1280, 1024) is None
    assert producer.ring_depth(1280) == 16


def test_selector_inline_on_one_cpu(roomy_host, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert producer.inline_reason(1280, 1024) == "1 CPU in the affinity mask"


def test_selector_inline_in_a_multiprocessing_child(roomy_host):
    with multiprocessing.get_context("fork").Pool(1) as pool:
        reason = pool.apply(producer.inline_reason, (1280, 1024))
    assert reason == "a multiprocessing child, whose pool fills every CPU"


def test_selector_inline_below_the_work_threshold(roomy_host):
    assert producer.inline_reason(1280, 819) == "1048320 chunk-epochs, under 1048576"


def test_selector_inline_for_large_slots(roomy_host):
    # scale-2000: 128,000 chunks make 2 MB slots, more than the ring holds.
    assert producer.ring_depth(128_000) == 0
    assert producer.inline_reason(128_000, 128) == "0 ring slots of 2048000 bytes, under 8"
    # degraded-ec: 12,800 chunks make 200 KiB slots, a 5-slot ring.
    assert producer.ring_depth(12_800) == 5
    assert producer.inline_reason(12_800, 320) == "5 ring slots of 204800 bytes, under 8"
    assert producer.inline_reason(8192, 1024) is None


def test_selector_inline_with_threads(roomy_host, monkeypatch):
    monkeypatch.setattr(producer.threading, "active_count", lambda: 2)
    assert "threads alive" in producer.inline_reason(1280, 1024)
