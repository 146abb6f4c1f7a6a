"""The column diff and the serial delta path's exactness.

Two layers are under test, bottom-up:

* the **column diff** — :func:`changed_column_keys` and
  :func:`policy_delta_columns` agree on what "changed" means, including
  the awkward edges (attribute removed entirely, purpose added under an
  existing attribute, name-only renames, empty policies);
* the **serial foundations** — canonical per-column summation makes
  chained delta evaluations and fresh full evaluations produce
  bit-for-bit identical arrays.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.dimensions import Dimension
from repro.core.policy import HousePolicy
from repro.datasets import healthcare_scenario
from repro.obs import observed
from repro.perf import (
    BatchViolationEngine,
    changed_column_keys,
    policy_columns,
    policy_fingerprint,
)
from repro.simulation.widening import (
    WideningStep,
    policy_delta_columns,
    widening_policies,
)

from tests.properties.test_batch_parity import _random_policy


def _counters(snapshot: dict) -> dict[str, float]:
    return {c["name"]: c["value"] for c in snapshot["counters"]}


def _assert_reports_identical(actual, expected) -> None:
    assert actual.policy_name == expected.policy_name
    assert actual.provider_ids == expected.provider_ids
    assert np.array_equal(actual.violations, expected.violations)
    assert np.array_equal(actual.violated, expected.violated)
    assert np.array_equal(actual.defaulted, expected.defaulted)
    assert actual.violation_probability == expected.violation_probability
    assert actual.total_violations == expected.total_violations


def _widening_scenario(n_providers: int = 40, rounds: int = 6):
    """A clinic scenario plus a saturating single-attribute widening path.

    Restricting the step to one attribute keeps per-round deltas small
    (a handful of columns out of the policy's full decomposition), and
    letting the path run past saturation exercises the empty-delta /
    repeated-fingerprint rounds too.
    """
    scenario = healthcare_scenario(n_providers, seed=3)
    first_attribute = scenario.policy.entries[0].attribute
    policies = widening_policies(
        scenario.policy,
        WideningStep.along(Dimension.RETENTION, 1),
        scenario.taxonomy,
        rounds,
        attributes=[first_attribute],
    )
    return scenario, policies


# ---------------------------------------------------------------------------
# the column diff: one definition of "changed" at every layer
# ---------------------------------------------------------------------------


class TestColumnDiff:
    def test_attribute_removed_entirely(self):
        scenario, _ = _widening_scenario(n_providers=10)
        base = scenario.policy
        victim = base.entries[0].attribute
        reduced = HousePolicy(
            [e for e in base.entries if e.attribute != victim],
            name="reduced",
        )
        changed = policy_delta_columns(base, reduced)
        assert changed  # the attribute had at least one column
        assert all(attribute == victim for attribute, _ in changed)
        # Exactly the victim's columns, nothing else.
        expected = sorted(
            key for key in policy_columns(base) if key[0] == victim
        )
        assert list(changed) == expected

    def test_purpose_added_under_existing_attribute(self):
        scenario, _ = _widening_scenario(n_providers=10)
        base = scenario.policy
        attribute = base.entries[0].attribute
        template = base.entries[0].tuple
        extra = template.replace(purpose="brand-new-purpose")
        extended = HousePolicy(
            [*base.entries, (attribute, extra)], name="extended"
        )
        changed = policy_delta_columns(base, extended)
        assert changed == ((attribute, "brand-new-purpose"),)

    def test_name_only_change_is_an_empty_delta(self):
        scenario, _ = _widening_scenario(n_providers=10)
        base = scenario.policy
        renamed = HousePolicy(base.entries, name="totally-different-name")
        assert policy_delta_columns(base, renamed) == ()
        assert policy_fingerprint(base) == policy_fingerprint(renamed)

    def test_empty_policy_transitions(self):
        scenario, _ = _widening_scenario(n_providers=10)
        base = scenario.policy
        empty = HousePolicy((), name="empty")
        assert policy_delta_columns(empty, empty) == ()
        forward = policy_delta_columns(empty, base)
        backward = policy_delta_columns(base, empty)
        every_column = tuple(sorted(policy_columns(base)))
        assert forward == every_column
        assert backward == every_column

    def test_changed_column_keys_is_symmetric_and_sorted(self):
        rng = random.Random(7)
        a = dict(policy_columns(_random_policy(rng, name="a")))
        b = dict(policy_columns(_random_policy(rng, name="b")))
        forward = changed_column_keys(a, b)
        backward = changed_column_keys(b, a)
        assert forward == backward
        assert list(forward) == sorted(forward)
        assert changed_column_keys(a, a) == ()


# ---------------------------------------------------------------------------
# serial foundations: canonical summation keeps every path bitwise equal
# ---------------------------------------------------------------------------


class TestSerialCanonicalSummation:
    def test_chained_deltas_match_fresh_full_evaluations(self):
        scenario, policies = _widening_scenario()
        engine = BatchViolationEngine(scenario.population)
        for policy in policies:
            chained = engine.evaluate(policy)
            fresh = BatchViolationEngine(scenario.population).evaluate(policy)
            _assert_reports_identical(chained, fresh)

    def test_delta_evaluations_are_counted(self):
        scenario, policies = _widening_scenario()
        with observed() as obs:
            engine = BatchViolationEngine(scenario.population)
            for policy in policies:
                engine.evaluate(policy)
            counters = _counters(obs.snapshot())
        assert counters["engine.batch.full_evaluations"] == 1.0
        assert counters["engine.batch.delta_evaluations"] >= 1.0
