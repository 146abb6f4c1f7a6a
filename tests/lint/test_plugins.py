"""Tests for the external rule registration (plugin) API."""

from __future__ import annotations

import pytest

from repro.exceptions import LintConfigurationError
from repro.lint import (
    Diagnostic,
    Layer,
    Severity,
    SourceLocation,
    get_rule,
    lint_documents,
    unregister_rule,
)
from repro.lint import plugins
from repro.lint.plugins import (
    lint_rule,
    load_entry_point_rules,
    plugin_load_errors,
    registered_rule,
    reset_plugins,
)


def noop_check(ctx, emit):
    pass


def taxonomy_nag(ctx, emit):
    emit(SourceLocation("taxonomy"), "the taxonomy displeases this plugin")


@pytest.fixture(autouse=True)
def _pristine_plugin_state():
    reset_plugins()
    yield
    reset_plugins()


class TestLintRuleDecorator:
    def test_registers_with_string_enums(self):
        lint_rule(
            "ACME001",
            title="purpose naming",
            severity="warning",
            layer="population",
            description="d",
            scope="provider",
        )(noop_check)
        try:
            info = get_rule("ACME001")
            assert info.severity is Severity.WARNING
            assert info.layer is Layer.POPULATION
            assert info.scope == "provider"
        finally:
            assert unregister_rule("ACME001")

    def test_collision_with_builtin_code_raises(self):
        with pytest.raises(LintConfigurationError):
            lint_rule(
                "PVL001",
                title="imposter",
                description="d",
            )(noop_check)

    def test_plugin_rule_reaches_reports_and_gating(self, taxonomy):
        with registered_rule(
            "ACME002",
            taxonomy_nag,
            title="taxonomy nag",
            severity="error",
            description="d",
        ):
            report = lint_documents(taxonomy)
            assert report.codes() == ("ACME002",)
            assert report.exit_code() == 1
            # Select/ignore treat plugin codes like any PVL code.
            assert not lint_documents(taxonomy, ignore=["ACME002"])
        # Context manager unregistered the rule on exit.
        report = lint_documents(taxonomy)
        assert not report
        with pytest.raises(LintConfigurationError):
            get_rule("ACME002")


class FakeEntryPoint:
    def __init__(self, name, target):
        self.name = name
        self._target = target

    def load(self):
        if isinstance(self._target, Exception):
            raise self._target
        return self._target


class TestEntryPointLoading:
    def test_loads_callable_entry_points(self, monkeypatch, taxonomy):
        def register():
            lint_rule(
                "ACME010", title="t", severity="info", description="d"
            )(taxonomy_nag)

        monkeypatch.setattr(
            plugins,
            "_entry_points",
            lambda: [FakeEntryPoint("acme", register)],
        )
        try:
            assert load_entry_point_rules() == ("acme",)
            assert plugin_load_errors() == ()
            assert get_rule("ACME010").title == "t"
            # Idempotent: a second call does not reload.
            assert load_entry_point_rules() == ()
        finally:
            unregister_rule("ACME010")

    def test_broken_plugin_is_recorded_not_fatal(self, monkeypatch, taxonomy):
        def register_ok():
            lint_rule(
                "ACME011", title="t", severity="info", description="d"
            )(noop_check)

        monkeypatch.setattr(
            plugins,
            "_entry_points",
            lambda: [
                FakeEntryPoint("broken", ImportError("no such module")),
                FakeEntryPoint("ok", register_ok),
            ],
        )
        try:
            assert load_entry_point_rules() == ("ok",)
            errors = plugin_load_errors()
            assert len(errors) == 1
            assert errors[0][0] == "broken"
            assert "no such module" in errors[0][1]
            # The linter still runs after a failed plugin load.
            assert lint_documents(taxonomy).codes() == ()
        finally:
            unregister_rule("ACME011")

    def test_metadata_backend_failure_disables_plugins_only(
        self, monkeypatch
    ):
        def explode():
            raise RuntimeError("metadata backend down")

        monkeypatch.setattr(plugins, "_entry_points", explode)
        assert load_entry_point_rules() == ()
        assert plugin_load_errors() == (
            ("<entry-points>", "metadata backend down"),
        )

    def test_force_reload(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            plugins,
            "_entry_points",
            lambda: calls.append(1) or [],
        )
        assert load_entry_point_rules() == ()
        assert load_entry_point_rules() == ()
        assert load_entry_point_rules(force=True) == ()
        assert len(calls) == 2


class TestDiagnosticRoundTrip:
    def test_from_dict_round_trips(self):
        diagnostic = Diagnostic(
            code="PVL001",
            severity=Severity.ERROR,
            message="m",
            location=SourceLocation(
                "policy", name="p", index=2, field="purpose"
            ),
            payload={"purpose": "resale"},
        )
        assert Diagnostic.from_dict(diagnostic.as_dict()) == diagnostic
