"""A deterministic guard on what ``parse_population`` builds.

A population document repeats a few hundred distinct preference specs
(each a point of the finite space P = Pr x V x G x R), so lowering it
should validate each distinct spelling once: at most one
:class:`PrivacyTuple` per distinct exact-typed ``(purpose, V, G, R)``
spelling, and no :class:`TupleSpec` (the AST that lint and ``validate``
read) at all.  Counting constructions, not timing them, keeps the guard
exact on any machine.
"""

from __future__ import annotations

import json

import pytest

from repro.core.tuples import PrivacyTuple
from repro.datasets import healthcare_scenario
from repro.datasets.export import scenario_documents
from repro.policy_lang import parse_population, parse_taxonomy
from repro.policy_lang.ast import TupleSpec


@pytest.fixture(scope="module")
def healthcare_2k():
    scenario = healthcare_scenario(2000, seed=3)
    documents = json.loads(json.dumps(scenario_documents(scenario)))
    return scenario, documents


def _count_constructions(monkeypatch, cls) -> list:
    built = []
    original = cls.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def _spellings(document) -> set:
    return {
        tuple(
            (type(spec[key]), spec[key])
            for key in ("purpose", "visibility", "granularity", "retention")
        )
        for entry in document["providers"]
        for spec in entry["preferences"]
    }


def test_each_spelling_is_resolved_once(monkeypatch, healthcare_2k):
    _, documents = healthcare_2k
    taxonomy = parse_taxonomy(documents["taxonomy"])
    tuples = _count_constructions(monkeypatch, PrivacyTuple)
    specs = _count_constructions(monkeypatch, TupleSpec)
    population = parse_population(documents["population"], taxonomy)
    n_specs = sum(
        len(entry["preferences"]) for entry in documents["population"]["providers"]
    )
    assert len(population) == 2000
    assert n_specs == 30000
    assert 0 < len(tuples) <= len(_spellings(documents["population"])) < 300
    assert specs == []


def test_lowered_population_equals_the_generated_one(healthcare_2k):
    scenario, documents = healthcare_2k
    generated = scenario.population
    parsed = parse_population(
        documents["population"], parse_taxonomy(documents["taxonomy"])
    )
    assert parsed.ids() == generated.ids()
    assert parsed.attribute_sensitivities == generated.attribute_sensitivities
    for ours, theirs in zip(parsed, generated):
        assert ours.preferences.entries == theirs.preferences.entries
        assert (
            ours.preferences.attributes_provided
            == theirs.preferences.attributes_provided
        )
        assert ours.preferences.attributes() == theirs.preferences.attributes()
        assert ours.sensitivity == theirs.sensitivity
        assert ours.threshold == theirs.threshold
        assert ours.segment == theirs.segment
