"""The top-level package facade: exports, version, docstring example."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_types_exported(self):
        for name in (
            "PrivacyTuple",
            "HousePolicy",
            "ProviderPreferences",
            "Population",
            "Provider",
            "ViolationEngine",
            "Dimension",
        ):
            assert name in repro.__all__

    def test_model_functions_exported(self):
        for name in (
            "diff",
            "comp",
            "conf",
            "violation_indicator",
            "provider_violation",
            "violation_probability",
            "default_probability",
            "is_alpha_ppdb",
            "break_even_extra_utility",
        ):
            assert name in repro.__all__

    def test_docstring_example_runs(self):
        from repro import (
            HousePolicy,
            Population,
            PrivacyTuple,
            Provider,
            ProviderPreferences,
            ViolationEngine,
        )

        policy = HousePolicy([("weight", PrivacyTuple("billing", 2, 2, 2))])
        prefs = ProviderPreferences(
            "alice", [("weight", PrivacyTuple("billing", 2, 1, 2))]
        )
        engine = ViolationEngine(policy, Population([Provider(preferences=prefs)]))
        assert engine.report().violation_probability == 1.0

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.taxonomy",
            "repro.policy_lang",
            "repro.storage",
            "repro.simulation",
            "repro.analysis",
            "repro.game",
            "repro.datasets",
            "repro.estimation",
            "repro.perf",
            "repro.cli",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.taxonomy",
            "repro.policy_lang",
            "repro.storage",
            "repro.simulation",
            "repro.analysis",
            "repro.game",
            "repro.estimation",
            "repro.perf",
        ],
    )
    def test_subpackage_alls_resolve(self, module):
        package = importlib.import_module(module)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{module}.{name}"

    def test_perf_surface_is_the_serial_engines(self):
        import repro.perf

        assert sorted(repro.perf.__all__) == [
            "BatchReport",
            "BatchViolationEngine",
            "CompiledColumn",
            "CompiledPopulation",
            "RANK_AXES",
            "assemble_report",
            "batch_assess_expansion",
            "changed_column_keys",
            "column_contribution",
            "policy_columns",
            "policy_fingerprint",
            "row_contribution",
            "sum_column_arrays",
        ]

    def test_every_public_item_documented(self):
        """Every object exported at the top level carries a docstring."""
        for name in repro.__all__:
            if name == "__version__" or name == "ORDERED_DIMENSIONS":
                continue
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"
