"""Unit tests for the metrics registry: instruments, summaries, export."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    escape_label_value,
    snapshot_to_prometheus,
)
from repro.obs.metrics import MAX_TIMER_SAMPLES


class TestCounters:
    def test_increment_and_default_amount(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.evaluations")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_same_name_and_labels_share_an_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits", path="delta").inc()
        registry.counter("hits", path="delta").inc()
        assert registry.counter("hits", path="delta").value == 2.0

    def test_distinct_labels_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits", path="delta").inc()
        registry.counter("hits", path="full").inc(5)
        assert registry.counter("hits", path="delta").value == 1.0
        assert registry.counter("hits", path="full").value == 5.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)


class TestGauges:
    def test_set_overwrites(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("population")
        gauge.set(80)
        gauge.set(41)
        assert gauge.value == 41.0


class TestKindClaims:
    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("engine.evaluations")
        with pytest.raises(ValueError):
            registry.gauge("engine.evaluations")
        with pytest.raises(ValueError):
            registry.timer("engine.evaluations")


class TestTimerPercentiles:
    def test_nearest_rank_over_known_samples(self):
        registry = MetricsRegistry()
        timer = registry.timer("step")
        for sample in range(1, 101):
            timer.observe(float(sample))
        assert timer.percentile(0.50) == 50.0
        assert timer.percentile(0.95) == 95.0
        assert timer.percentile(1.00) == 100.0

    def test_single_sample(self):
        registry = MetricsRegistry()
        timer = registry.timer("step")
        timer.observe(0.25)
        assert timer.percentile(0.50) == 0.25
        assert timer.percentile(0.95) == 0.25

    def test_empty_timer_percentile_is_zero(self):
        timer = MetricsRegistry().timer("step")
        assert timer.percentile(0.5) == 0.0

    def test_invalid_quantile_rejected(self):
        timer = MetricsRegistry().timer("step")
        with pytest.raises(ValueError):
            timer.percentile(0.0)
        with pytest.raises(ValueError):
            timer.percentile(1.5)

    def test_negative_duration_rejected(self):
        timer = MetricsRegistry().timer("step")
        with pytest.raises(ValueError):
            timer.observe(-0.1)

    def test_summary_fields(self):
        registry = MetricsRegistry()
        timer = registry.timer("step")
        for sample in (1.0, 2.0, 3.0, 4.0):
            timer.observe(sample)
        summary = timer.summary()
        assert summary["count"] == 4
        assert summary["total"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0
        assert summary["p95"] == 4.0
        assert summary["max"] == 4.0

    def test_count_total_max_exact_beyond_sample_cap(self):
        registry = MetricsRegistry()
        timer = registry.timer("step")
        for _ in range(MAX_TIMER_SAMPLES + 10):
            timer.observe(1.0)
        timer.observe(7.0)
        summary = timer.summary()
        assert summary["count"] == MAX_TIMER_SAMPLES + 11
        assert summary["max"] == 7.0

    def test_time_context_manager_records_a_sample(self):
        registry = MetricsRegistry()
        timer = registry.timer("block")
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total >= 0.0


class TestSnapshot:
    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha", kind="b").inc()
        registry.counter("alpha", kind="a").inc()
        registry.gauge("g").set(1)
        registry.timer("t").observe(0.5)
        snapshot = registry.snapshot()
        names = [(c["name"], tuple(sorted(c["labels"].items()))) for c in snapshot["counters"]]
        assert names == sorted(names)
        json.dumps(snapshot)  # must not raise

    def test_labels_stringified(self):
        registry = MetricsRegistry()
        registry.counter("faults.fired", at=3).inc()
        [entry] = registry.snapshot()["counters"]
        assert entry["labels"] == {"at": "3"}

    def test_timer_entry_is_a_summary_without_raw_samples(self):
        """The ``--metrics`` timer shape: summary statistics only."""
        registry = MetricsRegistry()
        registry.timer("t").observe(0.1)
        [entry] = registry.snapshot()["timers"]
        assert set(entry) == {
            "name", "labels", "count", "total", "mean", "p50", "p95", "max"
        }
        assert entry["count"] == 1
        assert entry["max"] == 0.1


class TestPrometheus:
    def test_counter_gauge_timer_families(self):
        registry = MetricsRegistry()
        registry.counter("engine.evaluations").inc(3)
        registry.gauge("population").set(80)
        registry.timer("step").observe(0.5)
        text = registry.to_prometheus()
        assert "# TYPE repro_engine_evaluations_total counter" in text
        assert "repro_engine_evaluations_total 3.0" in text
        assert "# TYPE repro_population gauge" in text
        assert "repro_population 80.0" in text
        assert "# TYPE repro_step_seconds summary" in text
        assert 'repro_step_seconds{quantile="0.5"} 0.5' in text
        assert "repro_step_seconds_sum 0.5" in text
        assert "repro_step_seconds_count 1.0" in text
        assert "repro_step_seconds_max 0.5" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_escaped_labels_in_exposition(self):
        registry = MetricsRegistry()
        registry.counter("faults.fired", site='we"ird\nsite\\x').inc()
        text = registry.to_prometheus()
        assert 'site="we\\"ird\\nsite\\\\x"' in text

    def test_dotted_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("storage.locked-retries").inc()
        text = registry.to_prometheus()
        assert "repro_storage_locked_retries_total 1.0" in text

    def test_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("hits", path="delta").inc(2)
        registry.timer("step").observe(0.25)
        live = registry.to_prometheus()
        reloaded = snapshot_to_prometheus(
            json.loads(json.dumps(registry.snapshot()))
        )
        assert reloaded == live

    def test_empty_snapshot_renders_empty(self):
        assert snapshot_to_prometheus(MetricsRegistry().snapshot()) == ""
