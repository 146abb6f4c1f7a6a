"""Span recorder for the traced run: per-layer time and counts.

The traced run wraps each layer's public entry points from the outside,
so the program itself is not edited to be measured.  Module-level
functions are wrapped in the module that looks them up at call time
(``repro.cli.parse_population``, not ``repro.policy_lang``'s
definition); methods are wrapped on their class.  Each wrapper records a
span — layer, target, start, end, parent span, op id and an optional
provider count — in memory while the recorder is active.

A layer's self time is the time its spans cover minus the time covered
by their child spans.  A target that no longer exists (a module or
attribute a later change deleted) is skipped; a layer whose targets are
all missing is reported as absent, with its metrics at 0.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_population_arg(args, kwargs, result) -> int:
    # CompiledPopulation.__init__(self, population, ...)
    population = args[1] if len(args) > 1 else kwargs["population"]
    return len(population)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``attr`` (``"f"`` or ``"Class.method"``)
    looked up in ``module``; ``size`` counts the providers a call handled."""

    module: str
    attr: str
    size: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[Target, ...]


LAYERS: tuple[Layer, ...] = (
    Layer(
        "simulation.population",
        (Target("repro.datasets.healthcare", "generate_population", _len_result),),
    ),
    Layer(
        "simulation.widening",
        (
            Target("repro.simulation.widening", "widen"),
            Target("repro.simulation.dynamics", "widen"),
        ),
    ),
    Layer(
        "simulation.scenario",
        (
            Target("repro.simulation", "run_expansion_sweep"),
            Target("repro.cli", "run_expansion_sweep"),
        ),
    ),
    Layer("simulation.dynamics", (Target("repro.simulation", "run_dynamics"),)),
    Layer(
        "core.population",
        (
            Target("repro.core.population", "Population.without"),
            Target("repro.core.population", "Population.subset"),
        ),
    ),
    Layer(
        "policy_lang",
        (
            Target("repro.cli", "parse_taxonomy"),
            Target("repro.cli", "parse_policy"),
            Target("repro.cli", "parse_population", _len_result),
            Target("repro.lint.runner", "parse_policy"),
            Target("repro.lint.runner", "parse_population", _len_result),
        ),
    ),
    Layer("lint", (Target("repro.lint", "lint_documents"),)),
    Layer(
        "core.engine",
        (
            Target("repro.core.engine", "ViolationEngine.report"),
            Target("repro.core.engine", "ViolationEngine.outcomes"),
        ),
    ),
    Layer("cli", (Target("repro.cli", "main"),)),
    Layer(
        "analysis",
        (
            Target("repro.analysis", "default_cdf_from_sweep"),
            Target("repro.analysis", "certification_document"),
            Target("repro.cli", "summarize"),
        ),
    ),
    Layer(
        "perf.compiled",
        (
            Target(
                "repro.perf.compiled",
                "CompiledPopulation.__init__",
                _len_population_arg,
            ),
        ),
    ),
    Layer(
        "perf.delta",
        (
            Target("repro.perf.delta", "MutableCompiledPopulation.__init__"),
            Target("repro.perf.delta", "MutableBatchEngine.remove"),
            Target("repro.perf.delta", "MutableCompiledPopulation.compact"),
        ),
    ),
    Layer(
        "perf.batch",
        (
            # Tombstone-masked rounds reach the batch engine through
            # evaluate_arrays, every other evaluation through evaluate.
            Target("repro.perf.batch", "BatchViolationEngine.evaluate"),
            Target("repro.perf.batch", "BatchViolationEngine.evaluate_arrays"),
        ),
    ),
)

#: Layer metric -> the program counter (``repro.obs``) it is read from.
COUNTERS: dict[str, str] = {
    "core.engine.evaluations": "engine.reference.evaluations",
    "perf.compiled.compilations": "perf.compilations",
    "perf.delta.removals": "delta.removals",
    "perf.delta.compactions": "delta.compactions",
    "perf.batch.full_evaluations": "engine.batch.full_evaluations",
    "perf.batch.delta_evaluations": "engine.batch.delta_evaluations",
}

#: Every per-layer metric of a traced run, with its unit, in report order.
#: ``.self_s`` and ``.calls`` are per-op means; ``.us_per_provider`` is
#: self time over the providers the layer's calls handled.
METRICS: tuple[tuple[str, str], ...] = (
    ("simulation.population.self_s", "s"),
    ("simulation.population.calls", "count"),
    ("simulation.population.us_per_provider", "us"),
    ("simulation.widening.self_s", "s"),
    ("simulation.widening.calls", "count"),
    ("simulation.scenario.self_s", "s"),
    ("simulation.dynamics.self_s", "s"),
    ("core.population.self_s", "s"),
    ("core.population.calls", "count"),
    ("policy_lang.self_s", "s"),
    ("policy_lang.calls", "count"),
    ("policy_lang.us_per_provider", "us"),
    ("lint.self_s", "s"),
    ("lint.calls", "count"),
    ("core.engine.self_s", "s"),
    ("core.engine.evaluations", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("analysis.self_s", "s"),
    ("perf.compiled.self_s", "s"),
    ("perf.compiled.compilations", "count"),
    ("perf.compiled.us_per_provider", "us"),
    ("perf.delta.self_s", "s"),
    ("perf.delta.removals", "count"),
    ("perf.delta.compactions", "count"),
    ("perf.batch.self_s", "s"),
    ("perf.batch.evaluations", "count"),
    ("perf.batch.full_evaluations", "count"),
    ("perf.batch.delta_evaluations", "count"),
    ("perf.batch.cache_hit_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

# Span record fields, kept as a list per span for low overhead.
LAYER, TARGET, START, END, PARENT, OP, SIZE = range(7)


def _resolve(target: Target):
    """``(owner, name, original)`` for *target*, or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
    except (AttributeError, KeyError):
        return None
    return owner, name, original


class Recorder:
    """Wraps the layer targets and records spans while :attr:`active`."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self.missing: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for layer in self.layers:
            found = 0
            for target in layer.targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.missing.append(target.label)
                    continue
                owner, name, original = resolved
                setattr(owner, name, self._wrap(layer.name, target, original))
                self._installed.append((owner, name, original))
                found += 1
            if not found:
                self.absent.append(layer.name)

    def uninstall(self) -> None:
        """Put every wrapped target back."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, layer: str, target: Target, original):
        spans, stack = self.spans, self._stack
        label, size = target.label, target.size

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            record = [layer, label, perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if size is not None:
                record[SIZE] = size(args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one call stack, so a span's children run one after
    another inside it and never overlap: their durations add up to the
    time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(
    spans: list[list],
    counters: dict[str, float],
    n_ops: int,
    absent: Collection[str] = (),
    scales: Sequence[float] | None = None,
) -> dict[str, float]:
    """Per-layer metrics (all of :data:`METRICS` but the trace overhead).

    A call is a span whose parent is not in the same layer, so a layer
    entry point that calls another (``report`` -> ``outcomes``) counts
    once.  ``scales[i]``, when given, turns op *i*'s wall time into the
    reference seconds the end-to-end times use.  Metrics of an absent
    layer are 0.
    """
    own = self_times(spans)
    if scales is not None:
        own = [t * scales[span[OP]] for t, span in zip(own, spans)]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    providers: dict[str, int] = {}
    for i, span in enumerate(spans):
        layer = span[LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + own[i]
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != layer:
            calls[layer] = calls.get(layer, 0) + 1
        if span[SIZE] is not None:
            providers[layer] = providers.get(layer, 0) + span[SIZE]
    values: dict[str, float] = {}
    for name, _unit in METRICS:
        layer, _, metric = name.rpartition(".")
        if name in COUNTERS:
            value = counters.get(COUNTERS[name], 0.0) / n_ops
        elif metric == "self_s":
            value = self_s.get(layer, 0.0) / n_ops
        elif metric in ("calls", "evaluations"):
            value = calls.get(layer, 0) / n_ops
        elif metric == "us_per_provider":
            count = providers.get(layer, 0)
            value = self_s.get(layer, 0.0) / count * 1e6 if count else 0.0
        elif name == "perf.batch.cache_hit_frac":
            hits = counters.get("engine.batch.cache_hits", 0.0)
            total = hits + sum(
                counters.get(key, 0.0)
                for key in (
                    "engine.batch.full_evaluations",
                    "engine.batch.delta_evaluations",
                )
            )
            value = hits / total if total else 0.0
        else:  # trace.overhead_frac needs the untraced run; run.py adds it.
            continue
        values[name] = 0.0 if layer in absent else value
    return values
