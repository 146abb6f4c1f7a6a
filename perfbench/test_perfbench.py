"""Tests of the benchmark's own arithmetic (no program code involved).

::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import recorder  # noqa: E402
import stats  # noqa: E402
from worker import REFERENCE_PROBE_S, Stopwatch, run_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond_it(self):
        with pytest.raises(ValueError, match="need 10"):
            stats.percentile(list(range(99)), 0.9)

    def test_p90_of_100_samples_leaves_exactly_ten_above(self):
        values = [float(v) for v in range(100, 0, -1)]
        p90 = stats.percentile(values, 0.9)
        assert p90 == 90.0
        assert sum(v > p90 for v in values) == 10

    def test_median_has_room_with_few_samples(self):
        assert stats.percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0

    def test_quartile_spread_matches_statistics_quantiles(self):
        median, q1, q3, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8])
        assert (q1, median, q3) == (2.25, 4.5, 6.75)
        assert spread == pytest.approx(1.0)


class _Workload:
    """Op *i* raises when *i* is in ``raises``; its check fails when *i*
    is in ``bad``; otherwise the output is ``i``."""

    def __init__(self, raises=(), bad=()):
        self.raises, self.bad = set(raises), set(bad)

    def op(self, i):
        if i in self.raises:
            raise RuntimeError("op failed")
        return i

    def check(self, i, output):
        if i in self.bad:
            raise AssertionError("check failed")
        return output * 10


class TestOkOpsCounting:
    def test_raising_op_and_failed_check_both_count_as_failed(self):
        loop = run_ops(_Workload(raises={1}, bad={3}), 5, sample_every=2)
        assert loop.failed == {1, 3}
        assert len(loop.latencies) == 5
        assert loop.work_s == loop.wall_s >= sum(loop.latencies)
        assert loop.kept == {0: 0, 2: 20, 4: 40}
        assert len(loop.messages) == 2

    def test_clean_run_fails_nothing(self):
        loop = run_ops(_Workload(), 4)
        assert loop.failed == set() and loop.kept == {} and loop.messages == []

    def test_failed_sample_is_not_kept(self):
        loop = run_ops(_Workload(bad={0}), 3, sample_every=2)
        assert loop.failed == {0} and loop.kept == {2: 20}


class TestSpeedScaling:
    def test_op_scale_is_reference_over_slower_probe_around_it(self):
        ref = REFERENCE_PROBE_S
        probes = iter([ref, ref, 2 * ref, ref, ref])  # slow spell around op 2
        loop = run_ops(_Workload(), 4, probe=lambda: next(probes))
        assert loop.scales == pytest.approx([1.0, 0.5, 0.5, 1.0])

    def test_stopwatch_scales_each_lap_and_skips_the_probes(self):
        ref = REFERENCE_PROBE_S
        probes = iter([ref, 2 * ref, ref])
        watch = Stopwatch(lambda: next(probes))
        first = watch.lap()
        second = watch.lap()
        assert (first[1], second[1]) == pytest.approx((0.5, 0.5))
        assert watch.wall_s == pytest.approx(first[0] + second[0])
        assert watch.scaled_s == pytest.approx(watch.wall_s / 2)

    def test_work_is_scaled_and_wall_is_not(self):
        loop = run_ops(_Workload(), 3, probe=lambda: 2 * REFERENCE_PROBE_S)
        assert loop.work_s == pytest.approx(loop.wall_s / 2)


def _span(layer, start, end, parent=-1, size=None):
    return [layer, f"{layer}.f", start, end, parent, 0, size]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span("a", 0.0, 10.0),
            _span("b", 1.0, 4.0, parent=0),
            _span("b", 5.0, 7.0, parent=0),
            _span("c", 5.5, 6.5, parent=2),
            _span("a", 11.0, 12.0),
        ]
        assert recorder.self_times(spans) == pytest.approx([5.0, 3.0, 1.0, 1.0, 1.0])

    def test_layer_metrics_per_op_and_calls(self):
        spans = [
            _span("core.engine", 0.0, 4.0),
            _span("core.engine", 1.0, 3.0, parent=0),  # report -> outcomes
            _span("perf.compiled", 5.0, 6.0, size=100),
            _span("perf.compiled", 7.0, 9.0, size=300),
        ]
        counters = {"engine.batch.cache_hits": 3, "engine.batch.full_evaluations": 1}
        values = recorder.layer_metrics(spans, counters, n_ops=2)
        assert values["core.engine.self_s"] == pytest.approx(2.0)
        assert values["perf.compiled.self_s"] == pytest.approx(1.5)
        assert values["perf.compiled.us_per_provider"] == pytest.approx(3.0 / 400 * 1e6)
        assert values["perf.batch.cache_hit_frac"] == pytest.approx(0.75)
        assert values["lint.calls"] == 0.0
        assert "trace.overhead_frac" not in values

    def test_self_time_scaled_per_op(self):
        spans = [_span("lint", 0.0, 2.0), _span("lint", 3.0, 4.0)]
        spans[1][recorder.OP] = 1
        values = recorder.layer_metrics(spans, {}, n_ops=2, scales=[1.0, 0.5])
        assert values["lint.self_s"] == pytest.approx((2.0 + 0.5) / 2)

    def test_same_layer_child_is_not_another_call(self):
        spans = [_span("cli", 0.0, 4.0), _span("cli", 1.0, 2.0, parent=0)]
        assert recorder.layer_metrics(spans, {}, n_ops=1)["cli.calls"] == 1.0


class TestAbsentTargets:
    @pytest.fixture
    def module(self, monkeypatch):
        module = types.ModuleType("perfbench_fake")

        class Engine:
            def run(self, x):
                return x + 1

        module.Engine = Engine
        module.go = lambda x: module.Engine().run(x) * 2
        monkeypatch.setitem(sys.modules, "perfbench_fake", module)
        return module

    def test_missing_targets_are_skipped_and_layer_reported_absent(self, module):
        layers = (
            recorder.Layer("perf.batch", (recorder.Target("perfbench_fake", "go"),)),
            recorder.Layer(
                "perf.delta",
                (
                    recorder.Target("perfbench_gone", "remove"),
                    recorder.Target("perfbench_fake", "Gone.remove"),
                ),
            ),
            recorder.Layer(
                "perf.compiled",
                (
                    recorder.Target("perfbench_fake", "Engine.run"),
                    recorder.Target("perfbench_fake", "Engine.missing"),
                ),
            ),
        )
        rec = recorder.Recorder(layers)
        rec.install()
        try:
            assert rec.absent == ["perf.delta"]
            assert rec.missing == [
                "perfbench_gone.remove",
                "perfbench_fake.Gone.remove",
                "perfbench_fake.Engine.missing",
            ]
            rec.active = True
            assert module.go(1) == 4
            rec.active = False
            assert module.go(1) == 4  # inactive wrappers record nothing
        finally:
            rec.uninstall()
        assert [span[recorder.LAYER] for span in rec.spans] == ["perf.batch", "perf.compiled"]
        assert rec.spans[1][recorder.PARENT] == 0
        values = recorder.layer_metrics(
            rec.spans, {"delta.removals": 5}, 1, rec.absent
        )
        assert values["perf.delta.removals"] == 0.0
        assert values["perf.batch.evaluations"] == 1.0
        assert module.Engine.run.__name__ == "run"
        assert not hasattr(module.go, "__wrapped__")


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(recorder.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "work_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "ok_ops_frac"
    }
