"""The journal format, pinned byte for byte on the Section 8 documents.

A journal resumes only while its run computes the same input fingerprint
and replays the step payloads it recorded.  These literals are what a
sweep (``max_steps=2``), a dynamics run (``rounds=2``) and a forecast
history replay (the policy, then the candidate) over
``examples/documents`` write; a change that alters any of them — a
renamed row field, a dropped key in the hashed document — would refuse
or misread every journal written before it, and fails here first.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.estimation import observe_widening_history
from repro.policy_lang import parse_policy, parse_population, parse_taxonomy
from repro.resilience import RunJournal
from repro.simulation import run_dynamics, run_expansion_sweep

DOCUMENTS = Path(__file__).resolve().parents[2] / "examples" / "documents"

SWEEP_FINGERPRINT = (
    "11e0e1162d65383bcfef9ccef29f863f19987e60eb287403602c7eaa6ac1518e"
)
SWEEP_STEPS = (
    '{"break_even_extra_utility":0.5,"default_probability":0.3333333333333333,'
    '"defaulted_providers":["Ted"],"extra_utility":0.0,"justified":false,'
    '"n_current":3,"n_future":2,"n_violated":2,"policy_name":"section-8+0",'
    '"step":0,"total_violations":140.0,"utility_current":3.0,'
    '"utility_future":2.0,"violation_probability":0.6666666666666666}',
    '{"break_even_extra_utility":2.0,"default_probability":0.6666666666666666,'
    '"defaulted_providers":["Ted","Bob"],"extra_utility":0.25,"justified":false,'
    '"n_current":3,"n_future":1,"n_violated":2,"policy_name":"section-8+1",'
    '"step":1,"total_violations":296.0,"utility_current":3.0,'
    '"utility_future":1.25,"violation_probability":0.6666666666666666}',
    '{"break_even_extra_utility":Infinity,"default_probability":1.0,'
    '"defaulted_providers":["Alice","Ted","Bob"],"extra_utility":0.5,'
    '"justified":false,"n_current":3,"n_future":0,"n_violated":3,'
    '"policy_name":"section-8+2","step":2,"total_violations":469.0,'
    '"utility_current":3.0,"utility_future":0.0,"violation_probability":1.0}',
)

DYNAMICS_FINGERPRINT = (
    "5c0993317c87553a165c2f7e50ea5fe5878ba53a96fd1cc7a98f4378ee051e78"
)
DYNAMICS_STEPS = (
    '{"defaulted_providers":["Ted"],"n_defaulted":1,"n_remaining":2,'
    '"n_start":3,"policy_name":"section-8@r0","round_index":0,'
    '"total_violations":140.0,"utility":2.0,'
    '"violation_probability":0.6666666666666666}',
    '{"defaulted_providers":["Bob"],"n_defaulted":1,"n_remaining":1,'
    '"n_start":2,"policy_name":"section-8@r1","round_index":1,'
    '"total_violations":176.0,"utility":1.25,"violation_probability":0.5}',
)

FORECAST_FINGERPRINT = (
    "8fd6d71aa014e1a0bfe6702f7ca8ec8e6dbefbf82de7ddbe31a894fb7a0ae6fe"
)
FORECAST_STEPS = (
    '{"departures":[["Ted",60.0]],"index":0,'
    '"last_tolerated":[["Alice",0.0],["Bob",80.0],["Ted",0.0]],'
    '"remaining":["Alice","Bob"]}',
    '{"departures":[["Bob",160.0],["Ted",60.0]],"index":1,'
    '"last_tolerated":[["Alice",0.0],["Bob",80.0],["Ted",0.0]],'
    '"remaining":["Alice"]}',
)


def _load(name):
    return json.loads((DOCUMENTS / f"{name}.json").read_text())


@pytest.fixture(scope="module")
def inputs():
    taxonomy = parse_taxonomy(_load("taxonomy"))
    policy = parse_policy(_load("policy"), taxonomy)
    population = parse_population(_load("population"), taxonomy)
    return population, policy, taxonomy


def _sweep(inputs, journal_path=None):
    return run_expansion_sweep(*inputs, max_steps=2, journal_path=journal_path)


def _dynamics(inputs, journal_path=None):
    return run_dynamics(*inputs, rounds=2, journal_path=journal_path)


def _forecast(inputs, journal_path=None):
    population, policy, taxonomy = inputs
    candidate = parse_policy(_load("candidate"), taxonomy)
    return observe_widening_history(
        population, [policy, candidate], journal_path=journal_path
    )


def _stored(path) -> tuple[str, list[str]]:
    """The journal's fingerprint and its step payloads as stored."""
    with RunJournal.open(str(path)) as journal:
        fingerprint = journal.fingerprint
    connection = sqlite3.connect(str(path))
    try:
        payloads = [
            bytes(payload).decode("utf-8")
            for (payload,) in connection.execute(
                "SELECT payload FROM journal_steps ORDER BY step"
            )
        ]
    finally:
        connection.close()
    return fingerprint, payloads


RUNS = {
    "sweep": (_sweep, SWEEP_FINGERPRINT, SWEEP_STEPS),
    "dynamics": (_dynamics, DYNAMICS_FINGERPRINT, DYNAMICS_STEPS),
    "forecast": (_forecast, FORECAST_FINGERPRINT, FORECAST_STEPS),
}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_written_journal_matches_the_pinned_bytes(tmp_path, inputs, kind):
    run, fingerprint, steps = RUNS[kind]
    path = tmp_path / f"{kind}.journal"
    run(inputs, str(path))
    assert _stored(path) == (fingerprint, list(steps))


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_pinned_journal_prefix_resumes(tmp_path, inputs, kind):
    """A journal holding only the pinned first step, as an interrupted
    run left it, resumes to the uninterrupted result."""
    run, fingerprint, steps = RUNS[kind]
    path = tmp_path / f"{kind}.journal"
    with RunJournal.create(str(path), kind=kind, fingerprint=fingerprint) as journal:
        journal.record_step(json.loads(steps[0]))
    resumed = run(inputs, str(path))
    assert resumed == run(inputs)
    assert _stored(path) == (fingerprint, list(steps))
