"""Soundness of the lint layer's severity-interval abstraction.

``repro.lint.intervals`` claims that, without invoking any engine, it
bounds every provider's exact ``Violation_i`` (Eq. 15) and the house
total (Eq. 16), decides ``w_i`` exactly (Definition 1 is
weight-independent), and — in ``"provider"`` weight-bounds mode —
collapses to the exact static severity.  These tests hold those claims
against the reference :class:`~repro.core.engine.ViolationEngine` over
the same randomized dyadic-rational corpus the batch parity suite uses,
so containment and point-equality are asserted **bit for bit**, never
within a tolerance.

Also held here: the intervals' certificate, in both weight-bounds
modes, equals the batch engine's evaluated one field for field (lint
rule PVL213 reports it).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import DefaultModel, ViolationEngine
from repro.lint.intervals import interval_analysis
from repro.perf import BatchViolationEngine

from .test_batch_parity import (
    N_SCENARIOS,
    _random_policy,
    _random_population,
)


def _exact_outcomes(policy, population, **model_kwargs):
    return ViolationEngine(policy, population, **model_kwargs).report().outcomes


def _assert_sound(policy, population, **model_kwargs):
    """Containment + exact w_i for both weight-bounds modes."""
    outcomes = _exact_outcomes(policy, population, **model_kwargs)
    for mode in ("population", "provider"):
        intervals = interval_analysis(
            policy, population, weight_bounds=mode, **model_kwargs
        )
        assert intervals.n_providers == len(outcomes)
        total = 0.0
        for bounds, outcome in zip(intervals, outcomes):
            assert bounds.provider_id == outcome.provider_id
            # Containment of the exact severity (the soundness claim).
            assert bounds.interval.lower <= outcome.violation
            assert outcome.violation <= bounds.interval.upper
            # Finding counts are exact geometry, so w_i is decided.
            assert bounds.violated == outcome.violated
            assert bounds.provably_safe == (not outcome.violated)
            # Default verdicts: must implies exact, exact implies may.
            if bounds.must_default:
                assert outcome.defaulted
            if outcome.defaulted:
                assert bounds.may_default
            if mode == "provider":
                # Point intervals equal the exact severity bit for bit.
                assert bounds.interval.is_point
                assert bounds.interval.lower == outcome.violation
                assert bounds.must_default == outcome.defaulted
            total += outcome.violation
        # Eq. 16: the house interval contains the exact total.
        assert intervals.house.lower <= total <= intervals.house.upper
        assert intervals.violated_ids() == tuple(
            o.provider_id for o in outcomes if o.violated
        )


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_randomized_interval_soundness(seed):
    rng = random.Random(0xA11 + seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"policy-{seed}")
    _assert_sound(policy, population)


@pytest.mark.parametrize("seed", range(40))
def test_soundness_with_model_overrides(seed):
    rng = random.Random(0xB22 + seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"override-{seed}")
    _assert_sound(
        policy,
        population,
        default_model=DefaultModel(strict=False),
        implicit_zero=bool(seed % 2),
    )


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_static_certification_matches_evaluation(seed):
    """The intervals' certificate equals the evaluated one whole."""
    rng = random.Random(0xC33 + seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"certify-{seed}")
    engine = BatchViolationEngine(population)
    for mode in ("provider", "population"):
        intervals = interval_analysis(policy, population, weight_bounds=mode)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            # Frozen dataclasses: field-for-field equality, violated
            # tuple in population order included.
            assert intervals.certificate(alpha) == engine.certify(policy, alpha)


def test_infinite_threshold_serialises_as_none():
    """``as_dict`` stays JSON-safe for never-defaulting providers."""
    rng = random.Random(7)
    population = _random_population(rng)
    policy = _random_policy(rng, name="json-safe")
    intervals = interval_analysis(policy, population)
    payload = intervals.as_dict()
    for entry in payload["providers"]:
        threshold = entry["threshold"]
        assert threshold is None or math.isfinite(threshold)
