"""The population rules' verdicts and bounds against the reference engine.

PVL110, PVL212, PVL213 and PVL214 read one batch evaluation per lint
context (``LintContext.engine`` / ``.report``).  These tests hold the
rules against the reference :class:`~repro.core.engine.ViolationEngine`
over the same randomized dyadic-rational corpus the batch parity suite
uses, so every comparison is bit for bit, never within a tolerance:

* PVL214 fires for exactly the engine's defaulted providers, with their
  ``Violation_i`` as both severity bounds and their threshold;
* PVL212 fires iff the engine violates no provider;
* PVL213's ``[house_lower, house_upper]`` contains the engine's Eq. 16
  total;
* the PVL110 / PVL213 certificate equals
  :meth:`~repro.perf.batch.BatchViolationEngine.certify`'s field for
  field.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import ViolationEngine
from repro.lint import LintConfig
from repro.lint.registry import LintContext, run_rules
from repro.perf import BatchViolationEngine
from repro.taxonomy import standard_taxonomy

from .test_batch_parity import (
    N_SCENARIOS,
    PURPOSES,
    _random_policy,
    _random_population,
)

POPULATION_RULES = ("PVL110", "PVL212", "PVL213", "PVL214")


def _findings(policy, population, alpha):
    context = LintContext(
        taxonomy=standard_taxonomy(PURPOSES),
        policy=policy,
        population=population,
        config=LintConfig(alpha=alpha),
    )
    return run_rules(context, select=POPULATION_RULES)


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_randomized_interval_soundness(seed):
    rng = random.Random(0xA11 + seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"policy-{seed}")
    # alpha = 1 always holds, so PVL213 reports its house bounds.
    findings = _findings(policy, population, 1.0)
    report = ViolationEngine(policy, population).report()
    by_code: dict[str, list] = {}
    for diagnostic in findings:
        by_code.setdefault(diagnostic.code, []).append(diagnostic)
        # Payloads stay strict JSON (never-defaulting providers hold an
        # infinite threshold).
        json.dumps(dict(diagnostic.payload), allow_nan=False)

    thresholds = {p.provider_id: p.threshold for p in population}
    defaults = {d.location.name: d.payload for d in by_code.get("PVL214", ())}
    expected = {
        str(o.provider_id): o for o in report.outcomes if o.defaulted
    }
    assert defaults.keys() == expected.keys()
    for name, payload in defaults.items():
        outcome = expected[name]
        assert payload["severity_lower"] == outcome.violation
        assert payload["severity_upper"] == outcome.violation
        assert payload["threshold"] == thresholds[outcome.provider_id]
        assert payload["strict"] is True

    assert ("PVL212" in by_code) == (report.n_violated == 0)
    if "PVL212" in by_code:
        (vacuous,) = by_code["PVL212"]
        assert vacuous.payload["house_lower"] == 0.0
        assert vacuous.payload["house_upper"] == 0.0

    (certifiable,) = by_code["PVL213"]
    payload = certifiable.payload
    assert payload["house_lower"] <= report.total_violations
    assert report.total_violations <= payload["house_upper"]
    assert "PVL110" not in by_code


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_static_certification_matches_evaluation(seed):
    """PVL110 or PVL213 reports the batch engine's certificate whole."""
    rng = random.Random(0xC33 + seed)
    population = _random_population(rng)
    policy = _random_policy(rng, name=f"certify-{seed}")
    engine = BatchViolationEngine(population)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        certificate = engine.certify(policy, alpha)
        findings = _findings(policy, population, alpha)
        (finding,) = [d for d in findings if d.code in ("PVL110", "PVL213")]
        assert finding.code == ("PVL213" if certificate.satisfied else "PVL110")
        payload = finding.payload
        assert payload["alpha"] == certificate.alpha
        assert payload["violation_probability"] == (
            certificate.violation_probability
        )
        assert payload["n_providers"] == certificate.n_providers
        if certificate.satisfied:
            assert payload["margin"] == certificate.margin
        else:
            assert payload["violated_providers"] == [
                str(p) for p in certificate.violated_providers
            ]
