"""Golden lint snapshots for every bundled dataset.

Each dataset is serialised to documents (the same path ``repro lint``
consumes), linted with a fixed config, and the rendered JSON report is
compared byte-for-byte against a checked-in golden file.  This pins the
whole pipeline — serialisation, rule catalogue, diagnostic ordering,
payloads, and the key-sorted renderer — so an unintended change to any
of them shows up as a readable golden diff.

Regenerate after an *intended* change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/lint/test_datasets_golden.py

and review the diff like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.datasets import (
    crm_scenario,
    government_scenario,
    healthcare_scenario,
    paper_example_scenario,
    social_network_scenario,
)
from repro.datasets.export import scenario_documents
from repro.lint import LintConfig, lint_documents, render_json
from repro.obs import observed
from repro.policy_lang import parse_taxonomy

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: Small fixed populations: the goldens pin diagnostics, not throughput.
DATASETS = {
    "crm": lambda: crm_scenario(12),
    "government": lambda: government_scenario(12),
    "healthcare": lambda: healthcare_scenario(12),
    "paper_example": paper_example_scenario,
    "social_network": lambda: social_network_scenario(12),
}

#: One fixed config for every golden: alpha exercises the static
#: certification rules (PVL110 / PVL213) in both directions.
CONFIG = LintConfig(alpha=0.5)


def dataset_report(name: str):
    documents = scenario_documents(DATASETS[name]())
    taxonomy = parse_taxonomy(documents["taxonomy"])
    return taxonomy, documents


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_matches_golden(name):
    taxonomy, documents = dataset_report(name)
    report = lint_documents(
        taxonomy,
        policy=documents["policy"],
        population=documents["population"],
        config=CONFIG,
    )
    rendered = render_json(report) + "\n"
    golden_path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        golden_path.write_text(rendered)
    assert golden_path.exists(), (
        f"missing golden {golden_path}; run with REPRO_REGEN_GOLDEN=1"
    )
    assert rendered == golden_path.read_text(), (
        f"lint output for {name!r} drifted from its golden snapshot; "
        f"if intended, regenerate with REPRO_REGEN_GOLDEN=1 and review "
        f"the diff"
    )


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_population_bounds_analysed_once(name):
    """One compile and one full batch evaluation per lint run.

    PVL110 and PVL213 take their certificates from the run's one batch
    engine and PVL212 and PVL214 read its one report, so every reading
    after the first is served from the engine's cache, and the output
    is still the golden bytes.
    """
    taxonomy, documents = dataset_report(name)
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    with observed() as obs:
        plain = lint_documents(
            taxonomy,
            policy=documents["policy"],
            population=documents["population"],
            config=CONFIG,
        )
    assert render_json(plain) + "\n" == golden
    counters = {
        entry["name"]: entry["value"] for entry in obs.snapshot()["counters"]
    }
    assert counters["perf.compilations"] == 1
    assert counters["engine.batch.full_evaluations"] == 1
    assert "engine.batch.delta_evaluations" not in counters
