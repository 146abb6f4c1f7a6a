"""Observability: process-local metrics, span tracing, structured logs.

Every quantity the paper's model computes — ``P(W)`` (Definition 2),
``Violation_i`` (Definition 4 / Eq. 15), ``P(Default)`` (Definition 5) —
now leaves a measurable trail: how often each engine ran, which path
(cached / delta / full / reference oracle) served it, how long it took,
what the resilience layer retried, degraded, or replayed along the way.
The package has three pieces:

* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters,
  gauges, and timers, exportable as sorted JSON or Prometheus text;
* :mod:`repro.obs.tracing` — the span :class:`~repro.obs.tracing.Tracer`
  with a structured-``logging`` backend and per-run trace trees;
* this module — the **activation switch** the instrumented call sites
  consult.

Zero cost when disabled
-----------------------
Observability is off by default.  Instrumented hot paths guard every
metric write behind one check::

    obs = active_observer()
    if obs is not None:
        obs.inc("engine.batch.cache_hits")

and the module-level :func:`span` helper returns one shared no-op
context manager while disabled — no allocation, no lock, no timestamps.
``tests/obs/test_overhead.py`` holds the guard: the disabled-path cost
is a global read plus a ``None`` comparison.

Enabling
--------
Use :func:`observed` (a context manager) in library code and tests, or
the CLI's global ``--metrics PATH`` / ``--trace`` / ``-v`` flags, which
enable an observer around the command and export the snapshot and span
tree when it finishes::

    with observed() as obs:
        run_expansion_sweep(...)
    print(obs.registry.to_prometheus())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    escape_label_value,
    snapshot_to_prometheus,
)
from .render import render_snapshot
from .tracing import SpanRecord, Tracer


class Observability:
    """One observed run's registry + tracer, with shorthand accessors."""

    __slots__ = ("registry", "tracer")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment the named counter."""
        self.registry.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the named gauge."""
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, seconds: float, **labels: object) -> None:
        """Record one duration sample on the named timer."""
        self.registry.timer(name, **labels).observe(seconds)

    def timer(self, name: str, **labels: object):
        """``with obs.timer("name"):`` — time a block into the named timer."""
        return self.registry.timer(name, **labels).time()

    def span(self, name: str, **attributes: Any):
        """Open a span on this observer's tracer."""
        return self.tracer.span(name, **attributes)

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot plus the recorded span trees."""
        document = self.registry.snapshot()
        document["spans"] = self.tracer.as_dict()
        return document


class _NoopSpan:
    """The shared do-nothing span handed out while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        return False

    def annotate(self, **attributes: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()

_OBSERVER: Observability | None = None


def active_observer() -> Observability | None:
    """The enabled :class:`Observability`, or ``None`` — the hot-path guard."""
    return _OBSERVER


def observability_enabled() -> bool:
    """Whether an observer is currently active."""
    return _OBSERVER is not None


def enable_observability() -> Observability:
    """Install (and return) a fresh process-local observer.

    Re-enabling while already enabled replaces the observer — each
    enable starts a clean registry and trace, which is what the CLI and
    tests want.  Pair with :func:`disable_observability`, or prefer the
    :func:`observed` context manager.
    """
    global _OBSERVER
    _OBSERVER = Observability()
    return _OBSERVER


def disable_observability() -> None:
    """Remove the active observer; instrumentation reverts to no-ops."""
    global _OBSERVER
    _OBSERVER = None


@contextmanager
def observed() -> Iterator[Observability]:
    """Enable observability for a ``with`` block, restoring the prior state."""
    global _OBSERVER
    previous = _OBSERVER
    observer = Observability()
    _OBSERVER = observer
    try:
        yield observer
    finally:
        _OBSERVER = previous


def span(name: str, **attributes: Any):
    """A span on the active tracer, or the shared no-op when disabled.

    The instrumented call sites use this directly::

        with span("engine.violations", providers=n):
            ...

    Disabled, it returns one preallocated object and records nothing.
    """
    observer = _OBSERVER
    if observer is None:
        return _NOOP_SPAN
    return observer.tracer.span(name, **attributes)


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Observability",
    "SpanRecord",
    "Timer",
    "Tracer",
    "active_observer",
    "disable_observability",
    "enable_observability",
    "escape_label_value",
    "observability_enabled",
    "observed",
    "render_snapshot",
    "snapshot_to_prometheus",
    "span",
]
