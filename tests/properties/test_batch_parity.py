"""Parity: the vectorized batch engine must equal the reference engine.

The batch engine (``repro.perf``) re-derives Definition 1, Eqs. 12-16,
and Definitions 2-5 over dense arrays; the reference
:class:`~repro.core.engine.ViolationEngine` walks providers one at a
time.  These tests assert the two agree **bit for bit** — not within a
tolerance — across a randomized scenario corpus.

Exact equality is achievable because the corpus draws every continuous
quantity (``Sigma``, ``sigma_i``, thresholds) as a dyadic rational (a
multiple of 0.25) with small magnitude: every product and sum the model
forms is then exactly representable in binary floating point, so the
answers cannot depend on summation order and any discrepancy is a real
logic bug, never rounding noise.

The corpus deliberately covers the awkward cases: providers with no
preferences at all, attributes provided without any preference (the
implicit-zero rows of Section 5), several preference tuples for one
(attribute, purpose) pair, several policy tuples for one pair, policy
attributes/purposes no provider knows, and infinite and zero
thresholds.  Both engines evaluate the paper's model: the providers' own
records, the implicit-zero completion and Definition 4's strict
inequality (the batch engine has no switch for any of them).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import (
    DimensionSensitivity,
    HousePolicy,
    Population,
    PrivacyTuple,
    Provider,
    ProviderPreferences,
    ViolationEngine,
)
from repro.perf import BatchViolationEngine

ATTRIBUTES = ("name", "weight", "diagnosis", "salary")
PURPOSES = ("billing", "research", "marketing")
SEGMENTS = (None, "fundamentalist", "pragmatist", "unconcerned")

N_SCENARIOS = 220  # acceptance floor is 200 randomized scenarios


def _dyadic(rng: random.Random, *, limit: int = 16) -> float:
    """A random multiple of 0.25 in [0, limit/4] — exact in binary FP."""
    return rng.randrange(0, limit + 1) / 4.0


def _random_tuple(rng: random.Random, purpose_pool=PURPOSES) -> PrivacyTuple:
    return PrivacyTuple(
        purpose=rng.choice(purpose_pool),
        visibility=rng.randrange(0, 7),
        granularity=rng.randrange(0, 7),
        retention=rng.randrange(0, 7),
    )


def _random_provider(rng: random.Random, index: int) -> Provider:
    provider_id = f"pr{index}"
    entries = [
        (rng.choice(ATTRIBUTES), _random_tuple(rng))
        for _ in range(rng.randrange(0, 6))
    ]
    provided = {attribute for attribute, _ in entries}
    # Sometimes supply attributes with no preference at all: these are the
    # implicit-zero rows of Section 5 when the policy names them.
    for attribute in ATTRIBUTES:
        if rng.random() < 0.35:
            provided.add(attribute)
    sensitivity = {
        attribute: DimensionSensitivity(
            value=_dyadic(rng),
            visibility=_dyadic(rng),
            granularity=_dyadic(rng),
            retention=_dyadic(rng),
        )
        for attribute in ATTRIBUTES
        if rng.random() < 0.5
    }
    roll = rng.random()
    if roll < 0.15:
        threshold = math.inf
    elif roll < 0.25:
        threshold = 0.0
    else:
        threshold = _dyadic(rng, limit=200)
    return Provider(
        preferences=ProviderPreferences(
            provider_id, entries, attributes_provided=provided
        ),
        sensitivity=sensitivity,
        threshold=threshold,
        segment=rng.choice(SEGMENTS),
    )


def _random_population(rng: random.Random) -> Population:
    providers = [
        _random_provider(rng, index) for index in range(rng.randrange(1, 13))
    ]
    sigma = {
        attribute: _dyadic(rng)
        for attribute in ATTRIBUTES
        if rng.random() < 0.8
    }
    return Population(providers, attribute_sensitivities=sigma)


def _random_policy(rng: random.Random, *, name: str) -> HousePolicy:
    attribute_pool = ATTRIBUTES + ("fingerprint",)  # nobody provides this
    purpose_pool = PURPOSES + ("audit",)  # nobody prefers this
    entries = []
    for _ in range(rng.randrange(1, 9)):
        attribute = rng.choice(attribute_pool)
        entries.append((attribute, _random_tuple(rng, purpose_pool)))
    return HousePolicy(entries, name=name)


def _assert_parity(
    batch: BatchViolationEngine,
    reference: ViolationEngine,
    policy: HousePolicy,
) -> None:
    report = batch.evaluate(policy)
    expected = reference.report()
    outcomes = expected.outcomes
    assert report.policy_name == expected.policy_name
    assert report.n_providers == expected.n_providers
    assert report.n_violated == expected.n_violated
    assert report.n_defaulted == expected.n_defaulted
    # Probabilities and the Eq. 16 total must be *identical*, not close.
    assert report.violation_probability == expected.violation_probability
    assert report.default_probability == expected.default_probability
    assert report.total_violations == expected.total_violations
    assert report.provider_ids == tuple(o.provider_id for o in outcomes)
    for row, outcome in enumerate(outcomes):
        assert bool(report.violated[row]) == outcome.violated
        assert bool(report.defaulted[row]) == outcome.defaulted
        assert float(report.violations[row]) == outcome.violation
        assert float(report.thresholds[row]) == outcome.threshold
        assert report.segments[row] == outcome.segment
    assert report.violated_ids() == expected.violated_ids()
    assert report.defaulted_ids() == expected.defaulted_ids()
    # Certificates are plain frozen dataclasses: compare them whole.
    for alpha in (0.0, 0.25, 0.5, 1.0):
        assert batch.certify(policy, alpha) == reference.certify(alpha)


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_randomized_scenario_parity(seed):
    """Bit-for-bit agreement on a random population x policy instance."""
    rng = random.Random(seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"rand-{seed}")
    batch = BatchViolationEngine(population)
    reference = ViolationEngine(policy, population)
    _assert_parity(batch, reference, policy)


@pytest.mark.parametrize("seed", range(40))
def test_delta_path_parity_along_policy_sequences(seed):
    """Sweep-style sequences (cache + delta path) still match the oracle.

    Each scenario evaluates a chain of related policies through ONE batch
    engine — so later evaluations exercise the column-delta fast path and
    the report cache — and checks every step against a fresh reference
    engine.
    """
    rng = random.Random(10_000 + seed)
    population = _random_population(rng)
    batch = BatchViolationEngine(population)
    base = _random_policy(rng, name=f"base-{seed}")
    policies = [base]
    for step in range(4):
        previous = policies[-1]
        entries = list(previous.entries)
        # Mutate a single entry (the single-rule delta the sweep API is
        # optimised for), occasionally appending instead.
        if entries and rng.random() < 0.8:
            victim = rng.randrange(len(entries))
            old = entries[victim]
            entries[victim] = type(old)(
                attribute=old.attribute,
                tuple=PrivacyTuple(
                    purpose=old.tuple.purpose,
                    visibility=min(old.tuple.visibility + 1, 8),
                    granularity=old.tuple.granularity,
                    retention=min(old.tuple.retention + 1, 8),
                ),
            )
        else:
            entries.append(
                (rng.choice(ATTRIBUTES), _random_tuple(rng))
            )
        policies.append(
            HousePolicy(entries, name=f"step-{seed}-{step}")
        )
    # Revisit the base policy at the end: exercises the report cache.
    policies.append(HousePolicy(base.entries, name="base-revisited"))
    for policy in policies:
        reference = ViolationEngine(policy, population)
        _assert_parity(batch, reference, policy)


def test_paper_worked_example_parity(paper_policy, paper_population):
    """Section 8's worked example agrees exactly (integer arithmetic)."""
    batch = BatchViolationEngine(paper_population)
    reference = ViolationEngine(paper_policy, paper_population)
    _assert_parity(batch, reference, paper_policy)
    report = batch.evaluate(paper_policy)
    assert report.total_violations == 140.0
    assert report.violation_probability == pytest.approx(2 / 3)


def test_healthcare_scenario_parity(small_healthcare):
    """A real generated scenario (arbitrary floats): flags and ids must be
    exact; totals may differ only by float summation order, so they get a
    tight relative tolerance instead of bitwise equality."""
    population, policy = (
        small_healthcare.population,
        small_healthcare.policy,
    )
    batch = BatchViolationEngine(population)
    reference = ViolationEngine(policy, population)
    report = batch.evaluate(policy)
    expected = reference.report()
    assert report.violated_ids() == expected.violated_ids()
    assert report.defaulted_ids() == expected.defaulted_ids()
    assert report.total_violations == pytest.approx(
        expected.total_violations, rel=1e-9
    )
    for row, outcome in enumerate(expected.outcomes):
        assert float(report.violations[row]) == pytest.approx(
            outcome.violation, rel=1e-9, abs=1e-12
        )
