"""The zero-cost-when-disabled guard, and the activation switch itself.

The instrumented hot paths pay exactly one global read plus a ``None``
comparison while observability is off.  These tests hold that contract
structurally (no observer, one shared no-op span object) and with a
generous wall-clock guard over the batch engine, so an accidentally
always-on registry shows up as a test failure rather than a silent
benchmark regression.
"""

from __future__ import annotations

from time import perf_counter

from repro.datasets import healthcare_scenario
from repro.obs import (
    _NOOP_SPAN,
    active_observer,
    disable_observability,
    enable_observability,
    observability_enabled,
    observed,
    span,
)
from repro.perf import BatchViolationEngine
from repro.simulation import run_dynamics


class TestSwitch:
    def test_disabled_by_default(self):
        assert active_observer() is None
        assert not observability_enabled()

    def test_disabled_span_is_one_shared_noop(self):
        first = span("engine.violations", providers=3)
        second = span("sweep.run")
        assert first is second is _NOOP_SPAN
        with first:
            first.annotate(ignored=True)  # must be a silent no-op

    def test_enable_disable_round_trip(self):
        observer = enable_observability()
        try:
            assert active_observer() is observer
            assert span("live") is not _NOOP_SPAN
        finally:
            disable_observability()
        assert active_observer() is None

    def test_observed_restores_previous_state(self):
        outer = enable_observability()
        try:
            with observed() as inner:
                assert active_observer() is inner
                assert inner is not outer
            assert active_observer() is outer
        finally:
            disable_observability()

    def test_reenabling_starts_a_clean_registry(self):
        observer = enable_observability()
        observer.inc("stale")
        try:
            fresh = enable_observability()
            assert fresh.registry.snapshot()["counters"] == []
        finally:
            disable_observability()


class TestInstrumentationWhileEnabled:
    def test_batch_engine_writes_metrics(self):
        scenario = healthcare_scenario(20, seed=3)
        with observed() as obs:
            engine = BatchViolationEngine(scenario.population)
            engine.evaluate(scenario.policy)
            engine.evaluate(scenario.policy)  # cache hit
        snapshot = obs.snapshot()
        counters = {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry[
                "value"
            ]
            for entry in snapshot["counters"]
        }
        assert counters[("perf.compilations", ())] == 1.0
        assert counters[("engine.batch.full_evaluations", ())] == 1.0
        assert counters[("engine.batch.cache_hits", ())] == 1.0
        timer_names = {entry["name"] for entry in snapshot["timers"]}
        assert "perf.compile_seconds" in timer_names
        assert "engine.batch.evaluate_seconds" in timer_names

    def test_a_generated_subset_compiles_by_cutting_its_store(self):
        scenario = healthcare_scenario(200, seed=3)
        subset = scenario.population.subset(scenario.population.ids()[::2])
        with observed() as obs:
            run_dynamics(subset, scenario.policy, scenario.taxonomy, rounds=40)
        snapshot = obs.snapshot()
        compiles = {
            entry["labels"]["source"]: entry["count"]
            for entry in snapshot["timers"]
            if entry["name"] == "perf.compile_seconds"
        }
        # The subset's compile and the run's one compaction.
        assert compiles == {"cut": 2}
        counters = {entry["name"]: entry["value"] for entry in snapshot["counters"]}
        assert counters["perf.compilations"] == 2.0
        assert counters["delta.compactions"] == 1.0

    def test_no_metrics_leak_once_disabled(self):
        scenario = healthcare_scenario(10, seed=3)
        with observed():
            pass
        engine = BatchViolationEngine(scenario.population)
        engine.evaluate(scenario.policy)
        with observed() as obs:
            pass
        assert obs.snapshot()["counters"] == []


class TestDisabledOverhead:
    def test_disabled_primitives_are_cheap(self):
        """The disabled path is a global read plus a ``None`` comparison.

        100k guard checks and no-op spans must complete in well under a
        second — a deliberately generous bound that only trips on a
        structural mistake (building label dicts, taking locks, or
        allocating span records while disabled), never on scheduler
        jitter.
        """
        assert active_observer() is None
        iterations = 100_000
        start = perf_counter()
        for _ in range(iterations):
            obs = active_observer()
            if obs is not None:  # pragma: no cover - guard never taken
                obs.inc("never")
            with span("engine.violations"):
                pass
        elapsed = perf_counter() - start
        assert elapsed < 2.0

    def test_disabled_evaluation_records_nothing(self):
        scenario = healthcare_scenario(20, seed=7)
        engine = BatchViolationEngine(scenario.population)
        assert active_observer() is None
        engine.evaluate(scenario.policy)
        engine.evaluate(scenario.policy)
        # Still disabled and still no observer created as a side effect.
        assert active_observer() is None
