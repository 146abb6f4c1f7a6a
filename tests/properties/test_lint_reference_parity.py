"""Parity: the model rules PVL101 and PVL110 against the reference model.

PVL101 decides Definition 1 per policy rule from each supplier's
``(attribute, purpose)`` column, stopping at the first supplier the rule
does not violate; PVL110 reads the batch engine's certificate.
Neither calls the reference functions, so these tests hold
them against those functions on the randomized corpus the batch parity
suite uses — providers with no preferences, attributes supplied without
any preference (the implicit zero tuple of Section 5), several tuples
per column, policy attributes nobody supplies:

* PVL101's findings equal a per-rule
  :func:`~repro.core.violation.violation_indicator` sweep over the
  suppliers of each rule's attribute;
* PVL110's payload equals the certificate
  :func:`~repro.core.ppdb.certify_alpha_ppdb` builds.
"""

from __future__ import annotations

import random

import pytest

from repro.core import HousePolicy
from repro.core.ppdb import certify_alpha_ppdb
from repro.core.violation import violation_indicator
from repro.lint import LintConfig
from repro.lint.registry import LintContext, run_rules
from repro.taxonomy import standard_taxonomy

from .test_batch_parity import (
    N_SCENARIOS,
    PURPOSES,
    _random_policy,
    _random_population,
)

ALPHAS = (0.0, 0.25, 0.5, 1.0)


def _context(policy, population, alpha=None):
    return LintContext(
        taxonomy=standard_taxonomy(PURPOSES),
        policy=policy,
        population=population,
        config=LintConfig(alpha=alpha),
    )


def _reference_guaranteed_violations(policy, population):
    """``(index, attribute, purpose, violated ids, P(W) = 1)`` per rule
    that violates every supplier of its attribute."""
    expected = []
    for index, entry in enumerate(policy.entries):
        suppliers = [
            provider
            for provider in population
            if entry.attribute in provider.preferences.attributes_provided
        ]
        single = HousePolicy([entry], name=policy.name)
        if suppliers and all(
            violation_indicator(provider.preferences, single)
            for provider in suppliers
        ):
            expected.append(
                (
                    index,
                    entry.attribute,
                    entry.purpose,
                    [str(provider.provider_id) for provider in suppliers],
                    len(suppliers) == len(population),
                )
            )
    return expected


def _scenario(seed):
    rng = random.Random(0xD44 + seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"lint-{seed}")
    return policy, population


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_guaranteed_violation_matches_violation_indicator(seed):
    policy, population = _scenario(seed)
    diagnostics = run_rules(_context(policy, population), select=["PVL101"])
    assert [
        (
            d.location.index,
            d.payload["attribute"],
            d.payload["purpose"],
            d.payload["violated_providers"],
            d.payload["forces_violation_probability_one"],
        )
        for d in diagnostics
    ] == _reference_guaranteed_violations(policy, population)
    for diagnostic in diagnostics:
        assert diagnostic.payload["n_suppliers"] == len(
            diagnostic.payload["violated_providers"]
        )
        assert diagnostic.payload["forces_violation_probability_one"] == (
            diagnostic.message.endswith("; the policy forces P(W) = 1")
        )


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_static_alpha_failure_matches_certify_alpha_ppdb(seed):
    policy, population = _scenario(seed)
    for alpha in ALPHAS:
        certificate = certify_alpha_ppdb(population, policy, alpha)
        fired = run_rules(
            _context(policy, population, alpha=alpha), select=["PVL110"]
        )
        if certificate.satisfied:
            assert fired == ()
            continue
        (diagnostic,) = fired
        assert diagnostic.payload == {
            "alpha": certificate.alpha,
            "violation_probability": certificate.violation_probability,
            "violated_providers": [
                str(p) for p in certificate.violated_providers
            ],
            "n_providers": certificate.n_providers,
        }


def test_corpus_holds_implicit_zero_suppliers():
    """The corpus exercises suppliers who state nothing for an attribute
    a rule collects, and PVL101 fires on some of its scenarios."""
    implicit = 0
    fired = 0
    for seed in range(N_SCENARIOS):
        policy, population = _scenario(seed)
        policy_attributes = set(policy.attributes())
        implicit += sum(
            1
            for provider in population
            for attribute in provider.preferences.attributes_provided
            if attribute in policy_attributes
            and not provider.preferences.for_attribute(attribute)
        )
        fired += bool(_reference_guaranteed_violations(policy, population))
    assert implicit > N_SCENARIOS
    assert fired > N_SCENARIOS // 10
