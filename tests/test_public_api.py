"""The top-level package facade: exports, version, docstring example."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

#: The model switches the ablations vary (Section 5's implicit-zero
#: completion, and the sensitivity and default models that replace the
#: providers' own records).  Only ``repro.core`` takes them.
MODEL_SWITCHES = frozenset({"implicit_zero", "sensitivities", "default_model"})


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
            "sum_column_arrays",
        ]

    def test_every_public_item_documented(self):
        """Every object exported at the top level carries a docstring."""
        for name in repro.__all__:
            if name == "__version__" or name == "ORDERED_DIMENSIONS":
                continue
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"


def _modules_outside_core():
    """``repro`` and every submodule but ``repro.core`` and ``__main__``."""
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        name = info.name
        if name in ("repro.__main__", "repro.core") or name.startswith(
            "repro.core."
        ):
            continue
        yield importlib.import_module(name)


def _public_callables(module):
    """``(name, function)`` for every public function, ``__init__`` and
    public method defined in *module*."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != (
            module.__name__
        ):
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attribute, member in vars(obj).items():
                if attribute.startswith("_") and attribute != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attribute}", member


def test_model_switches_live_only_in_core():
    """Everything built on the batch engine evaluates the paper's model;
    the switches the ablations vary stay on the reference functions."""
    found = sorted(
        f"{name}({parameter})"
        for module in _modules_outside_core()
        for name, function in _public_callables(module)
        for parameter in inspect.signature(function).parameters
        if parameter in MODEL_SWITCHES
    )
    assert found == []
