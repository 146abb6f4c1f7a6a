"""The process-local metrics registry: counters, gauges, and timers.

A :class:`MetricsRegistry` is a plain in-process store — no sockets, no
background threads — that the instrumentation sites write into while
observability is enabled (see :mod:`repro.obs`).  Three instrument kinds
cover everything the engines, storage layer, and resilience machinery
need to report:

* :class:`Counter` — monotonically increasing event counts (evaluations,
  cache hits, locked-database retries, fired faults);
* :class:`Gauge` — last-written values (population size, cache
  occupancy);
* :class:`Timer` — duration samples with ``count``/``total``/``mean``
  and nearest-rank ``p50``/``p95``/``max`` summaries.

Every instrument is identified by a dotted name plus an optional label
set (``faults.fired{kind=locked, site=db.execute}``), and the whole
registry exports two ways: :meth:`MetricsRegistry.snapshot` produces a
sorted, JSON-safe document (what ``repro ... --metrics PATH`` writes),
and :func:`snapshot_to_prometheus` renders any such snapshot — live or
reloaded from disk — in the Prometheus text exposition format.

Thread safety: one registry lock guards every mutation.  The lock is
only ever taken while observability is enabled; disabled runs never
construct a registry at all (see :func:`repro.obs.active_observer`).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Mapping

#: Timers keep at most this many raw duration samples for the percentile
#: summaries; ``count``/``total``/``max`` stay exact beyond the cap.
MAX_TIMER_SAMPLES = 8192

#: A canonical instrument identity: name plus sorted label pairs.
_MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, object]) -> _MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (>= 0) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The last value written."""
        return self._value


class Timer:
    """Duration samples with count/total and p50/p95/max summaries.

    Use :meth:`observe` with a measured duration in seconds, or
    :meth:`time` as a context manager around the work itself.
    Percentiles use the nearest-rank method over the retained samples
    (capped at :data:`MAX_TIMER_SAMPLES`); ``count``, ``total``, and
    ``max`` are exact regardless of the cap.
    """

    __slots__ = ("name", "labels", "_samples", "_count", "_total", "_max", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.labels = dict(labels)
        self._samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = lock

    def observe(self, seconds: float) -> None:
        """Record one duration sample, in seconds."""
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError("durations must be >= 0")
        with self._lock:
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if len(self._samples) < MAX_TIMER_SAMPLES:
                self._samples.append(seconds)

    def time(self) -> "_TimedBlock":
        """A context manager that observes the block's wall-clock time."""
        return _TimedBlock(self)

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed durations."""
        return self._total

    def percentile(self, quantile: float) -> float:
        """The nearest-rank percentile over the retained samples."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        rank = max(1, math.ceil(quantile * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict[str, float]:
        """The JSON-safe summary the snapshot carries."""
        with self._lock:
            count = self._count
            total = self._total
            maximum = self._max
        return {
            "count": count,
            "total": total,
            "mean": (total / count) if count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "max": maximum,
        }


class _TimedBlock:
    """``with timer.time():`` support, measured via ``perf_counter``."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimedBlock":
        from time import perf_counter

        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        from time import perf_counter

        self._timer.observe(perf_counter() - self._start)


class MetricsRegistry:
    """All instruments of one observed run, keyed by name + labels.

    The accessor methods create instruments on first use, so call sites
    never need registration boilerplate; asking for the same name and
    labels twice returns the same instrument.  A name may only ever be
    one instrument kind — reusing ``engine.evaluations`` as both a
    counter and a gauge is a programming error, reported loudly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[_MetricKey, Counter] = {}
        self._gauges: dict[_MetricKey, Gauge] = {}
        self._timers: dict[_MetricKey, Timer] = {}
        self._kinds: dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        claimed = self._kinds.setdefault(name, kind)
        if claimed != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {claimed}, "
                f"cannot reuse it as a {kind}"
            )

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + *labels*, created on first use."""
        key = _key(name, labels)
        with self._lock:
            self._claim(name, "counter")
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(name, dict(key[1]), self._lock)
                self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + *labels*, created on first use."""
        key = _key(name, labels)
        with self._lock:
            self._claim(name, "gauge")
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(name, dict(key[1]), self._lock)
                self._gauges[key] = instrument
        return instrument

    def timer(self, name: str, **labels: object) -> Timer:
        """The timer for ``name`` + *labels*, created on first use."""
        key = _key(name, labels)
        with self._lock:
            self._claim(name, "timer")
            instrument = self._timers.get(key)
            if instrument is None:
                instrument = Timer(name, dict(key[1]), self._lock)
                self._timers[key] = instrument
        return instrument

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A sorted, JSON-safe document of every instrument's state."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            timers = sorted(self._timers.items())
        return {
            "counters": [
                {"name": c.name, "labels": c.labels, "value": c.value}
                for _, c in counters
            ],
            "gauges": [
                {"name": g.name, "labels": g.labels, "value": g.value}
                for _, g in gauges
            ],
            "timers": [
                {"name": t.name, "labels": t.labels, **t.summary()}
                for _, t in timers
            ],
        }

    def to_prometheus(self) -> str:
        """The live registry in Prometheus text exposition format."""
        return snapshot_to_prometheus(self.snapshot())


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _metric_name(name: str) -> str:
    """A Prometheus-legal metric name, prefixed with the library's own."""
    sanitized = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return f"repro_{sanitized}"


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Mapping[str, str], extra: Mapping[str, str] = {}) -> str:
    pairs = {**labels, **extra}
    if not pairs:
        return ""
    rendered = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(pairs.items())
    )
    return f"{{{rendered}}}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def snapshot_to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document as Prometheus text.

    Counters become ``<name>_total`` counter families, gauges plain
    gauges, timers ``<name>_seconds`` summaries (quantiles 0.5/0.95 plus
    ``_sum``/``_count``) with a companion ``_seconds_max`` gauge.
    """
    lines: list[str] = []
    seen_types: set[str] = set()

    def _type_line(family: str, kind: str) -> None:
        if family not in seen_types:
            seen_types.add(family)
            lines.append(f"# TYPE {family} {kind}")

    for entry in snapshot.get("counters", ()):
        family = f"{_metric_name(entry['name'])}_total"
        _type_line(family, "counter")
        lines.append(
            f"{family}{_render_labels(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        family = _metric_name(entry["name"])
        _type_line(family, "gauge")
        lines.append(
            f"{family}{_render_labels(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("timers", ()):
        family = f"{_metric_name(entry['name'])}_seconds"
        _type_line(family, "summary")
        labels = entry.get("labels", {})
        for quantile, field in (("0.5", "p50"), ("0.95", "p95")):
            lines.append(
                f"{family}{_render_labels(labels, {'quantile': quantile})} "
                f"{_format_value(entry[field])}"
            )
        lines.append(
            f"{family}_sum{_render_labels(labels)} "
            f"{_format_value(entry['total'])}"
        )
        lines.append(
            f"{family}_count{_render_labels(labels)} "
            f"{_format_value(entry['count'])}"
        )
        max_family = f"{family}_max"
        _type_line(max_family, "gauge")
        lines.append(
            f"{max_family}{_render_labels(labels)} "
            f"{_format_value(entry['max'])}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
