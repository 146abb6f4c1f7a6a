"""Tests for the incremental lint runner and its fingerprint cache.

The load-bearing contract is parity: ``incremental_lint`` must produce
exactly the diagnostics ``lint_documents`` produces — fresh and from
cache — because the decomposition into a global pass
plus per-provider passes is an optimisation, not a semantics change.
"""

from __future__ import annotations

import json

import pytest

from repro.lint import (
    LintCache,
    LintConfig,
    SourceLocation,
    incremental_lint,
    lint_documents,
)
from repro.lint.plugins import registered_rule

from .conftest import rule


@pytest.fixture()
def dirty_population():
    """Findings across scopes: provider-local and population-global."""
    return {
        "attribute_sensitivities": {"weight": 2.0},
        "providers": [
            {
                "provider": "subsumed",
                "preferences": [
                    rule(
                        visibility="all",
                        granularity="specific",
                        retention="indefinite",
                    )
                ],
            },
            {
                "provider": "fragile",
                "threshold": 0.5,
                "preferences": [
                    rule(
                        visibility="owner",
                        granularity="existential",
                        retention="transaction",
                    )
                ],
                "sensitivities": {"weight": {"value": 1.0}},
            },
        ],
    }


def assert_parity(taxonomy, **kwargs):
    full = lint_documents(taxonomy, **kwargs)
    incremental = incremental_lint(taxonomy, **kwargs)
    assert incremental.as_dict() == full.as_dict()
    return full


class TestParity:
    def test_clean_documents(self, taxonomy, clean_policy, clean_population):
        report = assert_parity(
            taxonomy, policy=clean_policy, population=clean_population
        )
        assert not report

    def test_dirty_documents(self, taxonomy, clean_policy, dirty_population):
        report = assert_parity(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            config=LintConfig(alpha=0.5),
        )
        assert set(report.codes()) >= {"PVL211", "PVL214"}

    def test_taxonomy_only(self, taxonomy):
        assert not assert_parity(taxonomy)

    def test_select_and_ignore(self, taxonomy, clean_policy, dirty_population):
        assert_parity(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            select=["PVL211", "PVL214"],
        )
        report = assert_parity(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            ignore=["PVL211"],
        )
        assert "PVL211" not in report.codes()

    def test_unlowerable_population(self, taxonomy, clean_policy):
        # Structurally valid, semantically unlowerable (unknown purpose):
        # the model/population layers must stay out of the way in both
        # runners, and the provider passes must see population=None just
        # like the full run does.
        population = {
            "providers": [
                {"provider": "p", "preferences": [rule(purpose="resale")]}
            ]
        }
        report = assert_parity(
            taxonomy, policy=clean_policy, population=population
        )
        assert "PVL001" in report.codes()


class TestCache:
    def test_second_run_is_served_from_cache(
        self, taxonomy, clean_policy, dirty_population
    ):
        cache = LintCache()
        first = incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=cache,
        )
        assert cache.hits == 0
        misses = cache.misses
        assert misses > 0
        second = incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=cache,
        )
        assert second.as_dict() == first.as_dict()
        # Everything — the global pass and each provider pass — hit.
        assert cache.misses == misses
        assert cache.hits == misses

    def test_editing_one_provider_misses_only_that_provider(
        self, taxonomy, clean_policy, dirty_population
    ):
        cache = LintCache()
        incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=cache,
        )
        misses = cache.misses
        edited = json.loads(json.dumps(dirty_population))
        edited["providers"][1]["threshold"] = 1000.0
        incremental_lint(
            taxonomy, policy=clean_policy, population=edited, cache=cache
        )
        # Population digest changed -> global pass misses; provider 0 is
        # untouched -> hits; provider 1 changed -> misses.
        assert cache.misses == misses + 2
        assert cache.hits == 1

    def test_policy_edit_invalidates_everything(
        self, taxonomy, clean_policy, dirty_population
    ):
        cache = LintCache()
        incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=cache,
        )
        misses = cache.misses
        incremental_lint(
            taxonomy,
            policy={"name": "other", "rules": [rule()]},
            population=dirty_population,
            cache=cache,
        )
        assert cache.hits == 0
        assert cache.misses == 2 * misses

    def test_rule_registration_invalidates(
        self, taxonomy, clean_policy, dirty_population
    ):
        cache = LintCache()
        incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=cache,
        )

        def nag(ctx, emit):
            emit(SourceLocation("taxonomy"), "plugin was here")

        with registered_rule(
            "ACME020", nag, title="t", severity="info", description="d"
        ):
            report = incremental_lint(
                taxonomy,
                policy=clean_policy,
                population=dirty_population,
                cache=cache,
            )
        # The rules fingerprint is part of the envelope: stale entries
        # cannot shadow the new rule's findings.
        assert cache.hits == 0
        assert "ACME020" in report.codes()

    def test_save_and_load_round_trip(
        self, tmp_path, taxonomy, clean_policy, dirty_population
    ):
        path = tmp_path / "lint-cache.json"
        cache = LintCache(path)
        first = incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=cache,
        )
        cache.save()
        reloaded = LintCache(path)
        report = incremental_lint(
            taxonomy,
            policy=clean_policy,
            population=dirty_population,
            cache=reloaded,
        )
        assert report.as_dict() == first.as_dict()
        assert reloaded.misses == 0
        assert reloaded.hits > 0

    def test_missing_and_corrupt_cache_files_are_tolerated(self, tmp_path):
        assert len(LintCache(tmp_path / "absent.json")) == 0
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert len(LintCache(corrupt)) == 0
        wrong_version = tmp_path / "old.json"
        wrong_version.write_text(json.dumps({"version": 0, "entries": {}}))
        assert len(LintCache(wrong_version)) == 0

    def test_save_requires_a_path(self):
        with pytest.raises(ValueError):
            LintCache().save()
