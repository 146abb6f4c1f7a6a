"""Golden lint snapshots for hand-built edge-case documents.

The dataset goldens (``test_datasets_golden.py``) never show several
rules, so the documents under ``data/edge/`` are built to fire them:

* ``edge`` — one tuple spelled with level names by one provider and with
  integer ranks by another, a duplicate preference, dominated preference
  pairs (the looser entry before and after the stricter one), inert and
  dead clauses, subsumed preferences, suppliers holding no explicit
  preference for a rule's column (the implicit zero tuple), PVL101 with
  and without its "forces P(W) = 1" suffix, a shadowed and a dead
  policy rule, PVL110 and PVL214;
* ``edge_vacuous`` — the same population under a policy that can
  violate no one: PVL212 and PVL213;
* ``edge_unlowered`` — a population that fails to lower (an unknown
  purpose, off-ladder levels, an undeclared attribute) and a candidate
  that fails too: the population rules stay silent while the spec rules
  still fire.

The policy rows stay distinct after lowering, so every finding's index
is the document row under any reading.  Each set is rendered in text,
JSON and SARIF and compared byte for byte with its golden; the SARIF
goldens are held against the vendored schema too.

Regenerate after an *intended* change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/lint/test_edge_golden.py

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_documents, render
from repro.policy_lang import parse_taxonomy

from .test_sarif_schema import assert_valid_sarif

DATA_DIR = Path(__file__).parent / "data" / "edge"
GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: Document set name -> document kind -> file under ``data/edge/``.
SETS = {
    "edge": {"policy": "policy.json", "population": "population.json"},
    "edge_vacuous": {
        "policy": "policy_vacuous.json",
        "population": "population.json",
    },
    "edge_unlowered": {
        "policy": "policy.json",
        "population": "population_unlowered.json",
        "candidate": "candidate_unlowered.json",
    },
}

#: Output format -> golden file suffix.
FORMATS = {"text": "txt", "json": "json", "sarif": "sarif"}

CONFIG = LintConfig(alpha=0.5)


def load(name: str):
    taxonomy = parse_taxonomy(
        json.loads((DATA_DIR / "taxonomy.json").read_text())
    )
    documents = {
        kind: json.loads((DATA_DIR / filename).read_text())
        for kind, filename in SETS[name].items()
    }
    return taxonomy, documents


def rendered(report, format: str) -> str:
    return render(report, format) + "\n"


def golden(name: str, format: str) -> str:
    return (GOLDEN_DIR / f"{name}.{FORMATS[format]}").read_text()


@pytest.mark.parametrize("format", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(SETS))
def test_plain_matches_golden(name, format):
    taxonomy, documents = load(name)
    report = lint_documents(taxonomy, **documents, config=CONFIG)
    path = GOLDEN_DIR / f"{name}.{FORMATS[format]}"
    if REGEN:
        path.write_text(rendered(report, format))
    assert rendered(report, format) == path.read_text(), (
        f"lint output for {name!r} ({format}) drifted from its golden "
        f"snapshot; if intended, regenerate with REPRO_REGEN_GOLDEN=1 and "
        f"review the diff"
    )


@pytest.mark.parametrize("name", sorted(SETS))
def test_sarif_golden_is_valid(name):
    assert_valid_sarif(golden(name, "sarif"))


def test_sets_fire_the_edge_rules():
    """The goldens show every rule they were built for."""
    fired = {
        name: set(json.loads(golden(name, "json"))["summary"]["codes"])
        for name in SETS
    }
    assert {
        "PVL005", "PVL101", "PVL102", "PVL105", "PVL106", "PVL107",
        "PVL110", "PVL210", "PVL211", "PVL214",
    } <= fired["edge"]
    assert {"PVL212", "PVL213"} <= fired["edge_vacuous"]
    assert {
        "PVL001", "PVL002", "PVL003", "PVL005", "PVL106", "PVL107",
        "PVL210", "PVL211",
    } <= fired["edge_unlowered"]
    assert not fired["edge_unlowered"] & {
        "PVL101", "PVL110", "PVL212", "PVL213", "PVL214",
    }
    messages = [
        d["message"]
        for d in json.loads(golden("edge", "json"))["diagnostics"]
        if d["code"] == "PVL101"
    ]
    assert sum("forces P(W) = 1" in m for m in messages) == 1
    assert len(messages) == 2
