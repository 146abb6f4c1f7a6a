"""Property-based tests for the Section 10 estimation machinery."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.estimation import DefaultObservation, ThresholdEstimator

severities = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def observations(draw):
    n = draw(st.integers(1, 12))
    result = []
    for index in range(n):
        lower = draw(severities)
        if draw(st.booleans()):
            gap = draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
            upper = lower + gap
        else:
            upper = None
        result.append(DefaultObservation(f"p{index}", lower, upper))
    return result


class TestEstimatorProperties:
    @given(obs=observations(), grid=st.lists(severities, min_size=2, max_size=10))
    @settings(max_examples=200)
    def test_curve_monotone(self, obs, grid):
        estimator = ThresholdEstimator(obs)
        ordered = sorted(grid)
        values = [estimator.default_fraction(s) for s in ordered]
        assert values == sorted(values)

    @given(obs=observations(), severity=severities)
    def test_curve_bounded(self, obs, severity):
        estimator = ThresholdEstimator(obs)
        assert 0.0 <= estimator.default_fraction(severity) <= 1.0

    @given(obs=observations())
    def test_curve_zero_at_zero(self, obs):
        # At severity 0 no interval has positive mass below (lower >= 0),
        # except degenerate (0, 0] intervals which default immediately.
        estimator = ThresholdEstimator(obs)
        degenerate = sum(
            1 for o in obs if o.upper is not None and o.upper == 0.0
        )
        assert estimator.default_fraction(0.0) == degenerate / len(obs)

    @given(obs=observations())
    def test_points_inside_brackets(self, obs):
        estimator = ThresholdEstimator(obs)
        for estimate in estimator.estimates():
            if estimate.censored:
                assert estimate.point == estimate.lower
            else:
                assert estimate.lower <= estimate.point <= estimate.upper

    @given(obs=observations(), budget=st.floats(0.0, 0.99, allow_nan=False))
    @settings(max_examples=100)
    def test_severity_at_budget_respects_budget(self, obs, budget):
        estimator = ThresholdEstimator(obs)
        severity = estimator.severity_at_budget(budget)
        if estimator.default_fraction(0.0) > budget:
            # Infeasible budget (degenerate zero-severity departures):
            # the documented answer is "no positive severity is safe".
            assert severity == 0.0
            return
        # Bisection converges from below; allow the tolerance of 60 halvings.
        assert estimator.default_fraction(severity) <= budget + 1e-6

    @given(obs=observations())
    def test_fully_censored_never_predicts_defaults(self, obs):
        censored_only = [
            DefaultObservation(o.provider_id, o.lower, None) for o in obs
        ]
        estimator = ThresholdEstimator(censored_only)
        assert estimator.default_fraction(1e9) == 0.0
        assert estimator.n_departed() == 0
