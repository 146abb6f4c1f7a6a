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
def test_population_bounds_analysed_once(name, monkeypatch):
    """One geometry pass per lint run, one weight pass per mode.

    PVL110, PVL212 and PVL213 read the population-bounds intervals and
    PVL214 the provider-bounds ones; both weigh the exceedance geometry
    of the run's one lint context, and the output is still the golden
    bytes.
    """
    from repro.lint.intervals import IntervalGeometry

    # The populations themselves are kept, so no id is reused.
    geometries: list[object] = []
    weighings: list[tuple[object, str]] = []
    of = IntervalGeometry.of.__func__
    weigh = IntervalGeometry.weigh

    def counted_of(cls, policy, population, **kwargs):
        geometries.append(population)
        return of(cls, policy, population, **kwargs)

    def counted_weigh(self, weight_bounds, **kwargs):
        weighings.append((self.population, weight_bounds))
        return weigh(self, weight_bounds, **kwargs)

    monkeypatch.setattr(IntervalGeometry, "of", classmethod(counted_of))
    monkeypatch.setattr(IntervalGeometry, "weigh", counted_weigh)
    taxonomy, documents = dataset_report(name)
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    plain = lint_documents(
        taxonomy,
        policy=documents["policy"],
        population=documents["population"],
        config=CONFIG,
    )
    assert render_json(plain) + "\n" == golden
    assert len(geometries) == 1
    assert sorted((id(p), mode) for p, mode in weighings) == [
        (id(geometries[0]), "population"),
        (id(geometries[0]), "provider"),
    ]
