"""Near-zero-overhead span timing.

A :class:`Tracer` aggregates named spans -- (count, total seconds) per name,
measured on the monotonic ``time.perf_counter`` clock -- entered either as a
context manager (``with tracer.span("routing"): ...``) or via the
:meth:`Tracer.wrap` decorator.  Spans nest: a span opened while another is
active is aggregated under the dotted path ``"outer.inner"``, so a summary is
unambiguous about where time was spent.

Tracing is *disabled by default*: the module-level :data:`NULL_TRACER` is an
always-off tracer whose ``span()`` returns one shared no-op context manager,
so instrumented hot paths pay only an attribute lookup and two no-op calls
per span when nobody is tracing.  The engine's per-epoch loop is vectorized
(a handful of spans per epoch, never per request), so even an *enabled*
tracer costs microseconds per epoch against array ops that cost milliseconds.

Typical use::

    from edm.obs import Tracer

    tr = Tracer()
    metrics = simulate(cfg, tracer=tr)   # metrics["timings"] == tr.summary()
    tr.summary()
    # {"simulate.workload_gen": {"count": 256, "total_s": 0.41, "mean_s": ...},
    #  "simulate.kernel": {...}, ...}
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable


class _NullSpan:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; created per ``with`` entry on an enabled tracer."""

    __slots__ = ("_tracer", "_name", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tr = self._tracer
        stack = tr._stack
        path = f"{stack[-1]}.{self._name}" if stack else self._name
        stack.append(path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        tr = self._tracer
        path = tr._stack.pop()
        agg = tr._agg.get(path)
        if agg is None:
            tr._agg[path] = [1, elapsed]
        else:
            agg[0] += 1
            agg[1] += elapsed
        if tr._events is not None:
            tr._events.append((path, self._t0, elapsed))


class Tracer:
    """Aggregating span timer.  ``enabled`` is True for plain Tracers.

    With ``record_events=True`` the tracer additionally keeps every span
    *occurrence* -- (path, start, duration) -- not just the per-path
    aggregate, anchored to the wall clock so timelines recorded in
    different processes (sweep parent + workers) line up on one axis.
    :meth:`events` serializes them for :mod:`edm.obs.trace_export`.
    """

    enabled = True

    def __init__(self, record_events: bool = False) -> None:
        self._agg: dict[str, list] = {}   # path -> [count, total_seconds]
        self._stack: list[str] = []
        self._events: list[tuple[str, float, float]] | None = (
            [] if record_events else None
        )
        # One wall-clock anchor per tracer: perf_counter start times become
        # absolute wall seconds as ``anchor + t0``, so cross-process events
        # share a common (if NTP-grade) time axis.
        self._wall_anchor = (
            time.time() - time.perf_counter() if record_events else 0.0
        )

    def span(self, name: str) -> _Span:
        """Context manager timing one named span (nests under the active span)."""
        return _Span(self, name)

    def wrap(self, name: str | None = None) -> Callable:
        """Decorator form: time every call to the wrapped function.

        ``@tracer.wrap()`` uses the function's ``__qualname__`` as the span
        name; pass ``name=`` to override.
        """

        def decorate(fn: Callable) -> Callable:
            span_name = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return timed

        return decorate

    def events(self) -> list[dict]:
        """Recorded span occurrences as serializable records, start order.

        Each record carries ``name`` (dotted span path), ``ts`` (wall-clock
        start, seconds), ``dur`` (seconds), and the recording ``pid`` /
        ``tid`` -- the rows of the run log's ``span`` records, which
        Perfetto export consumes.  Empty when the tracer was built without
        ``record_events=True``.
        """
        if not self._events:
            return []
        pid = os.getpid()
        tid = threading.get_ident()
        out = [
            {
                "name": name,
                "ts": self._wall_anchor + t0,
                "dur": dur,
                "pid": pid,
                "tid": tid,
            }
            for name, t0, dur in self._events
        ]
        out.sort(key=lambda e: e["ts"])
        return out

    def summary(self) -> dict[str, dict]:
        """Aggregated spans: ``{path: {count, total_s, mean_s}}``, insertion order."""
        return {
            path: {
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for path, (count, total) in self._agg.items()
        }


class NullTracer(Tracer):
    """Always-disabled tracer: spans are shared no-ops, summaries empty."""

    enabled = False

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def wrap(self, name: str | None = None) -> Callable:
        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate


#: Module-level disabled tracer; instrumented code defaults to this, so
#: tracing costs nothing unless a caller passes a real Tracer.
NULL_TRACER = NullTracer()
