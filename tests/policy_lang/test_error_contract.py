"""The document error contract: which fault is reported, and how.

A malformed document may hold several faults.  The parsers report the
first one in a fixed order, and its exception type and message are part
of the contract: ``repro evaluate`` prints the message as its one coded
stderr line.  Within one provider entry of a population document the
order is

1. every spec's structure and type (mapping, keys, attribute and purpose
   strings, level-name-or-rank values), spec by spec, then the
   iterability of ``attributes_provided``;
2. the provider id;
3. taxonomy resolution (purpose, then visibility, granularity,
   retention), spec by spec;
4. ``attributes_provided`` covering every attribute the specs name;
5. the sensitivities;
6. the threshold.

Duplicate provider ids are reported only after every entry is lowered.
A policy document's rules are checked the same way, before its name.

The "memo traps" place a value that compares (and hashes) equal to a
valid one after it — ``True`` and ``1.0`` after ``1``, the string
``"1"`` on a named ladder, a whitespace-only purpose — in the same
document and in a second parse with the same :class:`Taxonomy`: a
resolved spelling must never be served for an invalid one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.exceptions import (
    DomainError,
    PolicyDocumentError,
    PrivacyModelError,
    UnknownPurposeError,
    ValidationError,
)
from repro.policy_lang import parse_policy, parse_population, parse_taxonomy

TAXONOMY = {
    "purposes": ["pr", "ads"],
    "visibility": ["v0", "v1", "v2", "v3"],
    "granularity": ["g0", "g1", "g2", "g3"],
    "retention": ["r0", "r1", "r2", "r3"],
}


def spec(**fields) -> dict:
    """A valid preference/rule spec, with *fields* replaced (None drops)."""
    base = {
        "attribute": "Weight",
        "purpose": "pr",
        "visibility": 1,
        "granularity": "g1",
        "retention": 2,
    }
    base.update(fields)
    return {key: value for key, value in base.items() if value is not None}


def entry(name, *specs, **fields) -> dict:
    """A provider entry (one valid spec unless *specs* are given)."""
    result = {"provider": name, "preferences": list(specs) or [spec()]}
    result.update(fields)
    return result


VALID = entry(
    "Alice",
    spec(),
    spec(attribute="Age", visibility="v2", retention="r3"),
    threshold=10,
    sensitivities={"Weight": {"value": 2, "visibility": 1}},
)

POLICY = {"name": "baseline", "rules": [spec(), spec(attribute="Age")]}


def population(*entries) -> dict:
    return {"attribute_sensitivities": {"Weight": 4.0}, "providers": [VALID, *entries]}


@dataclass(frozen=True)
class Case:
    id: str
    document: dict
    error: type
    message: str


def _rule_missing(name, missing, rule) -> str:
    return f"{name}: rule missing keys {missing}: {rule!r}"


POPULATION_CASES = (
    # -- two faults in one entry: the earlier check wins ---------------------
    Case(
        "spec-type-before-missing-provider",
        population({"preferences": [spec(purpose="ads", visibility=True)]}),
        PolicyDocumentError,
        "visibility must be a level name or integer rank, got True",
    ),
    Case(
        "later-spec-structure-before-earlier-spec-resolution",
        population(
            entry("Bob", spec(purpose="billing"), spec(retention=None))
        ),
        PolicyDocumentError,
        _rule_missing(
            "preferences of 'Bob'", ["retention"], spec(retention=None)
        ),
    ),
    Case(
        "missing-key-before-unknown-key",
        population(entry("Bob", {**spec(granularity=None), "colour": 1})),
        PolicyDocumentError,
        _rule_missing(
            "preferences of 'Bob'",
            ["granularity"],
            {**spec(granularity=None), "colour": 1},
        ),
    ),
    Case(
        "spec-not-a-mapping",
        population(entry("Bob", spec(), ["Weight", "pr", 1, 1, 1])),
        PolicyDocumentError,
        "preferences of 'Bob': each rule must be a mapping, got list",
    ),
    Case(
        "attribute-type-before-purpose-type",
        population(entry("Bob", spec(attribute=7, purpose=""))),
        ValidationError,
        "attribute must be str, got int: 7",
    ),
    Case(
        "attributes-provided-not-iterable-before-provider-id",
        population(
            {"preferences": [spec(purpose="billing")], "attributes_provided": 5}
        ),
        TypeError,
        "'int' object is not iterable",
    ),
    Case(
        "provider-id-before-resolution",
        population(entry("", spec(purpose="billing"))),
        ValidationError,
        "provider must be a non-empty string",
    ),
    Case(
        "provider-id-type-before-resolution",
        population(entry(5, spec(visibility="v9"))),
        ValidationError,
        "provider must be str, got int: 5",
    ),
    Case(
        "purpose-before-levels",
        population(entry("Bob", spec(purpose="billing", visibility="v9"))),
        UnknownPurposeError,
        "unknown purpose 'billing'",
    ),
    Case(
        "visibility-before-granularity",
        population(entry("Bob", spec(visibility="v9", granularity=9))),
        DomainError,
        "value 'v9' is not a level of domain 'visibility'",
    ),
    Case(
        "resolution-before-attributes-provided",
        population(
            entry("Bob", spec(retention=9), attributes_provided=["Age"])
        ),
        DomainError,
        "value 9 is not a level of domain 'retention'",
    ),
    Case(
        "attributes-provided-missing-before-sensitivities",
        population(
            entry(
                "Bob",
                spec(),
                spec(attribute="Age"),
                attributes_provided=["Age"],
                sensitivities={"Weight": {"weirdness": 1}},
            )
        ),
        ValidationError,
        "preferences mention attributes not in attributes_provided: "
        "['Weight']",
    ),
    Case(
        "sensitivities-before-threshold",
        population(
            entry(
                "Bob",
                sensitivities={"Weight": {"weirdness": 1}},
                threshold=-1,
            )
        ),
        PolicyDocumentError,
        "provider 'Bob'/'Weight': unknown sensitivity keys ['weirdness']",
    ),
    Case(
        "negative-threshold",
        population(entry("Bob", threshold=-1)),
        ValidationError,
        "threshold must be >= 0.0, got -1.0",
    ),
    Case(
        "threshold-not-a-number",
        population(entry("Bob", threshold="abc")),
        ValueError,
        "could not convert string to float: 'abc'",
    ),
    Case(
        "entry-errors-before-duplicate-ids",
        population(entry("Alice"), entry("Carol", spec(purpose="billing"))),
        UnknownPurposeError,
        "unknown purpose 'billing'",
    ),
    Case(
        "duplicate-ids",
        population(entry("Bob"), entry("Alice")),
        ValidationError,
        "duplicate provider id 'Alice'",
    ),
    # -- memo traps: equal-comparing spellings after a valid one -------------
    Case(
        "trap-true-after-one",
        population(entry("Bob", spec(visibility=True))),
        PolicyDocumentError,
        "visibility must be a level name or integer rank, got True",
    ),
    Case(
        "trap-float-after-one",
        population(entry("Bob", spec(retention=2.0))),
        PolicyDocumentError,
        "retention must be a level name or integer rank, got 2.0",
    ),
    Case(
        "trap-list-after-one",
        population(entry("Bob", spec(visibility=[1]))),
        PolicyDocumentError,
        "visibility must be a level name or integer rank, got [1]",
    ),
    Case(
        "trap-digit-string-on-named-ladder",
        population(entry("Bob", spec(visibility="1"))),
        DomainError,
        "value '1' is not a level of domain 'visibility'",
    ),
    Case(
        "trap-whitespace-purpose",
        population(entry("Bob", spec(purpose="  "))),
        ValidationError,
        "purpose must be a non-empty string",
    ),
)

POLICY_CASES = (
    Case(
        "rule-structure-before-name",
        {"name": "", "rules": [spec(), spec(purpose=None)]},
        PolicyDocumentError,
        _rule_missing("policy ''", ["purpose"], spec(purpose=None)),
    ),
    Case(
        "name-before-resolution",
        {"name": 5, "rules": [spec(purpose="billing")]},
        ValidationError,
        "name must be str, got int: 5",
    ),
    Case(
        "rule-purpose-unknown",
        {"name": "p", "rules": [spec(), spec(purpose="billing")]},
        UnknownPurposeError,
        "unknown purpose 'billing'",
    ),
    Case(
        "rule-trap-true-after-one",
        {"name": "p", "rules": [spec(), spec(granularity=True)]},
        PolicyDocumentError,
        "granularity must be a level name or integer rank, got True",
    ),
    Case(
        "rule-trap-digit-string-on-named-ladder",
        {"name": "p", "rules": [spec(), spec(granularity="1")]},
        DomainError,
        "value '1' is not a level of domain 'granularity'",
    ),
)


def _ids(cases):
    return [case.id for case in cases]


def _raises_exactly(case: Case, parse, *args) -> None:
    with pytest.raises(Exception) as excinfo:
        parse(case.document, *args)
    assert type(excinfo.value) is case.error
    assert str(excinfo.value) == case.message


def _coded_line(kind: str, case: Case) -> str:
    """The one stderr line ``repro evaluate`` prints for *case*."""
    message = case.message
    if not issubclass(case.error, PrivacyModelError):
        message = f"malformed {kind} document: {message}"
    return "error[PVL903]: " + " ".join(message.split())


@pytest.fixture()
def taxonomy():
    return parse_taxonomy(TAXONOMY)


class TestPopulationContract:
    def test_valid_documents_parse(self, taxonomy):
        parsed = parse_population(population(entry("Bob")), taxonomy)
        assert parsed.ids() == ("Alice", "Bob")
        assert len(parse_policy(POLICY, taxonomy)) == 2

    @pytest.mark.parametrize("case", POPULATION_CASES, ids=_ids(POPULATION_CASES))
    def test_parse_population(self, case, taxonomy):
        _raises_exactly(case, parse_population, taxonomy)

    @pytest.mark.parametrize("case", POPULATION_CASES, ids=_ids(POPULATION_CASES))
    def test_second_parse_with_the_same_taxonomy(self, case, taxonomy):
        parse_population(population(entry("Bob")), taxonomy)
        parse_policy(POLICY, taxonomy)
        _raises_exactly(case, parse_population, taxonomy)
        _raises_exactly(case, parse_population, taxonomy)


class TestPolicyContract:
    @pytest.mark.parametrize("case", POLICY_CASES, ids=_ids(POLICY_CASES))
    def test_parse_policy(self, case, taxonomy):
        _raises_exactly(case, parse_policy, taxonomy)

    @pytest.mark.parametrize("case", POLICY_CASES, ids=_ids(POLICY_CASES))
    def test_second_parse_with_the_same_taxonomy(self, case, taxonomy):
        parse_population(population(entry("Bob")), taxonomy)
        parse_policy(POLICY, taxonomy)
        _raises_exactly(case, parse_policy, taxonomy)


def _evaluate(tmp_path, capsys, *, policy, population_doc) -> str:
    paths = {}
    for name, payload in (
        ("taxonomy", TAXONOMY),
        ("policy", policy),
        ("population", population_doc),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    code = main(
        [
            "evaluate",
            "--taxonomy", paths["taxonomy"],
            "--policy", paths["policy"],
            "--population", paths["population"],
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    return lines[0]


class TestEvaluateCodedLine:
    @pytest.mark.parametrize("case", POPULATION_CASES, ids=_ids(POPULATION_CASES))
    def test_population(self, case, tmp_path, capsys):
        line = _evaluate(
            tmp_path, capsys, policy=POLICY, population_doc=case.document
        )
        assert line == _coded_line("population", case)

    @pytest.mark.parametrize("case", POLICY_CASES, ids=_ids(POLICY_CASES))
    def test_policy(self, case, tmp_path, capsys):
        line = _evaluate(
            tmp_path,
            capsys,
            policy=case.document,
            population_doc=population(entry("Bob")),
        )
        assert line == _coded_line("policy", case)
