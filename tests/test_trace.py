"""Span tracer: aggregation, nesting, decorator, null overhead, engine coverage."""

import time

import pytest

from conftest import cfg_factory
from edm.engine.core import simulate
from edm.obs import NULL_TRACER, NullTracer, Tracer


def test_span_aggregates_count_and_total():
    tr = Tracer()
    for _ in range(3):
        with tr.span("work"):
            pass
    summary = tr.summary()
    assert summary["work"]["count"] == 3
    assert summary["work"]["total_s"] >= 0.0
    assert summary["work"]["mean_s"] == pytest.approx(summary["work"]["total_s"] / 3)


def test_nested_spans_get_dotted_paths():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    summary = tr.summary()
    assert set(summary) == {"outer", "outer.inner"}
    assert summary["outer.inner"]["count"] == 2
    # The parent's total covers its children (monotonic clock, same stack).
    assert summary["outer"]["total_s"] >= summary["outer.inner"]["total_s"]


def test_span_times_with_monotonic_clock():
    tr = Tracer()
    with tr.span("sleep"):
        time.sleep(0.01)
    assert tr.summary()["sleep"]["total_s"] >= 0.009


def test_decorator_wraps_and_times():
    tr = Tracer()

    @tr.wrap("compute")
    def f(x):
        return x + 1

    assert f(1) == 2
    assert f(2) == 3
    assert tr.summary()["compute"]["count"] == 2


def test_decorator_default_name_is_qualname():
    tr = Tracer()

    @tr.wrap()
    def helper():
        return 42

    helper()
    assert any("helper" in k for k in tr.summary())


def test_null_tracer_is_disabled_and_empty():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("anything"):
        pass
    assert NULL_TRACER.summary() == {}

    @NULL_TRACER.wrap("noop")
    def f():
        return 7

    assert f() == 7
    assert NULL_TRACER.summary() == {}
    assert isinstance(NULL_TRACER, NullTracer)


def test_exception_inside_span_still_recorded():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.span("boom"):
            raise RuntimeError("x")
    assert tr.summary()["boom"]["count"] == 1
    assert tr._stack == []  # stack unwound cleanly


def test_untraced_simulate_has_no_timings_key(small_cfg):
    assert "timings" not in simulate(small_cfg)


def test_traced_simulate_metrics_identical_minus_timings(small_cfg):
    plain = simulate(small_cfg)
    traced = simulate(small_cfg, tracer=Tracer())
    timings = traced.pop("timings")
    assert traced == plain
    assert set(timings) == {
        "simulate.setup",
        "simulate.workload_gen",
        "simulate.kernel",
        "simulate.observers",
        "simulate.migration",
        "simulate.finalize",
    }
    assert timings["simulate.workload_gen"]["count"] == small_cfg.epochs
    assert timings["simulate.kernel"]["count"] == small_cfg.epochs
    assert (
        timings["simulate.migration"]["count"]
        == small_cfg.epochs // small_cfg.migrate_interval
    )


def test_spans_cover_at_least_80pct_of_simulate_wall_time():
    # Acceptance gate: with tracing on, the phase spans account for >= 80%
    # of simulate()'s wall time (nothing significant runs untimed).
    cfg = cfg_factory(num_osds=8, epochs=128, requests_per_epoch=4096, chunks_per_osd=16)
    tr = Tracer()
    t0 = time.perf_counter()
    metrics = simulate(cfg, tracer=tr)
    wall = time.perf_counter() - t0
    span_total = sum(v["total_s"] for v in metrics["timings"].values())
    assert span_total >= 0.8 * wall
    assert span_total <= wall * 1.05  # sanity: spans can't exceed the wall
