"""Crash-recovery properties: kill after round k, resume, equal bit-for-bit.

The acceptance bar for the resilience layer: for every workload and every
kill point, an interrupted-then-resumed run must produce *exactly* the
result of an uninterrupted run — same floats, same provider tuples, same
ordering — and injected storage faults must either be retried through or
surface as coded errors, never as a silently different answer.
"""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.datasets import healthcare_scenario
from repro.estimation import (
    ThresholdEstimator,
    forecast_defaults,
    observe_widening_history,
)
from repro.exceptions import JournalMismatchError, ProcessKilled, ValidationError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RunJournal,
    resumable_dynamics,
    resumable_forecast,
    resumable_sweep,
)
from repro.simulation import WideningStep, run_dynamics, run_expansion_sweep
from repro.simulation.widening import widening_path

MAX_STEPS = 4
ROUNDS = 4


@pytest.fixture(scope="module")
def scenario():
    # Enough providers and widening room that defaults happen mid-path.
    return healthcare_scenario(50, seed=23)


@pytest.fixture(scope="module")
def uninterrupted_sweep(scenario):
    return run_expansion_sweep(
        scenario.population,
        scenario.policy,
        scenario.taxonomy,
        max_steps=MAX_STEPS,
    )


@pytest.fixture(scope="module")
def history(scenario):
    return [
        policy
        for _, policy in widening_path(
            scenario.policy,
            WideningStep.uniform(1),
            scenario.taxonomy,
            3,
        )
    ]


class TestSweepRecovery:
    @pytest.mark.parametrize("kill_after", range(MAX_STEPS + 1))
    def test_kill_at_every_step_then_resume(
        self, tmp_path, scenario, uninterrupted_sweep, kill_after
    ):
        path = str(tmp_path / "sweep.journal")
        plan = FaultPlan(
            [FaultSpec(site="sweep.step", kind="kill", at=kill_after)]
        )
        with plan.activate():
            with pytest.raises(ProcessKilled):
                resumable_sweep(
                    scenario.population,
                    scenario.policy,
                    scenario.taxonomy,
                    journal_path=path,
                    max_steps=MAX_STEPS,
                )
        resumed = resumable_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=path,
            max_steps=MAX_STEPS,
        )
        assert resumed.rows == uninterrupted_sweep.rows

    def test_double_interruption(self, tmp_path, scenario, uninterrupted_sweep):
        path = str(tmp_path / "sweep.journal")
        for kill_after in (1, 3):
            plan = FaultPlan(
                [FaultSpec(site="sweep.step", kind="kill", at=0)]
            )
            # at=0 relative to *this* process: each resume dies on the
            # first live step it attempts, making progress one step at
            # a time — the worst crash-loop shape.
            del kill_after
            with plan.activate():
                with pytest.raises(ProcessKilled):
                    resumable_sweep(
                        scenario.population,
                        scenario.policy,
                        scenario.taxonomy,
                        journal_path=path,
                        max_steps=MAX_STEPS,
                    )
        resumed = resumable_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=path,
            max_steps=MAX_STEPS,
        )
        assert resumed.rows == uninterrupted_sweep.rows

    def test_uninterrupted_journaled_run_matches(
        self, tmp_path, scenario, uninterrupted_sweep
    ):
        resumed = resumable_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=str(tmp_path / "sweep.journal"),
            max_steps=MAX_STEPS,
        )
        assert resumed.rows == uninterrupted_sweep.rows

    def test_resume_against_different_population_refused(
        self, tmp_path, scenario
    ):
        path = str(tmp_path / "sweep.journal")
        resumable_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=path,
            max_steps=2,
        )
        other = healthcare_scenario(50, seed=99)
        with pytest.raises(JournalMismatchError):
            resumable_sweep(
                other.population,
                scenario.policy,
                scenario.taxonomy,
                journal_path=path,
                max_steps=2,
            )

    def test_locked_database_during_checkpoint_is_retried(
        self, tmp_path, scenario, uninterrupted_sweep
    ):
        # Two consecutive locked errors on every commit site visit index
        # 0 — within the retry budget, so the run completes untouched.
        plan = FaultPlan(
            [FaultSpec(site="db.commit", kind="locked", at=1, count=2)]
        )
        with plan.activate():
            swept = resumable_sweep(
                scenario.population,
                scenario.policy,
                scenario.taxonomy,
                journal_path=str(tmp_path / "sweep.journal"),
                max_steps=MAX_STEPS,
            )
        assert ("db.commit", 1, "locked") in plan.fired
        assert swept.rows == uninterrupted_sweep.rows

    def test_disk_full_fails_loudly_without_corrupting(
        self, tmp_path, scenario, uninterrupted_sweep
    ):
        path = str(tmp_path / "sweep.journal")
        plan = FaultPlan(
            [
                FaultSpec(
                    site="db.commit", kind="disk_full", at=2, count=999
                )
            ]
        )
        with plan.activate():
            with pytest.raises(sqlite3.OperationalError, match="disk is full"):
                resumable_sweep(
                    scenario.population,
                    scenario.policy,
                    scenario.taxonomy,
                    journal_path=path,
                    max_steps=MAX_STEPS,
                )
        # The journal still opens clean and the run resumes to the
        # bit-identical result once space is back.
        with RunJournal.open(path) as journal:
            assert journal.n_steps >= 1
        resumed = resumable_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=path,
            max_steps=MAX_STEPS,
        )
        assert resumed.rows == uninterrupted_sweep.rows


class TestDynamicsRecovery:
    @pytest.mark.parametrize("kill_after", range(ROUNDS))
    def test_kill_at_every_round_then_resume(
        self, tmp_path, scenario, kill_after
    ):
        expected = run_dynamics(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            rounds=ROUNDS,
        )
        path = str(tmp_path / "dynamics.journal")
        plan = FaultPlan(
            [FaultSpec(site="dynamics.round", kind="kill", at=kill_after)]
        )
        with plan.activate():
            with pytest.raises(ProcessKilled):
                resumable_dynamics(
                    scenario.population,
                    scenario.policy,
                    scenario.taxonomy,
                    journal_path=path,
                    rounds=ROUNDS,
                )
        resumed = resumable_dynamics(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=path,
            rounds=ROUNDS,
        )
        assert resumed == expected


class TestForecastRecovery:
    @pytest.mark.parametrize("kill_after", range(3))
    def test_kill_at_every_observation_then_resume(
        self, tmp_path, scenario, history, kill_after
    ):
        estimator = ThresholdEstimator(
            observe_widening_history(scenario.population, history)
        )
        expected = forecast_defaults(
            estimator,
            scenario.population,
            history[-1],
            per_provider_utility=1.0,
            implicit_zero=True,
        )
        path = str(tmp_path / "forecast.journal")
        plan = FaultPlan(
            [FaultSpec(site="forecast.observe", kind="kill", at=kill_after)]
        )
        with plan.activate():
            with pytest.raises(ProcessKilled):
                resumable_forecast(
                    scenario.population,
                    history,
                    history[-1],
                    journal_path=path,
                )
        resumed = resumable_forecast(
            scenario.population,
            history,
            history[-1],
            journal_path=path,
        )
        assert resumed == expected


class TestJournalHygiene:
    def test_journal_survives_on_disk_between_runs(self, tmp_path, scenario):
        path = str(tmp_path / "sweep.journal")
        resumable_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            journal_path=path,
            max_steps=2,
        )
        assert os.path.exists(path)
        with RunJournal.open(path) as journal:
            assert journal.kind == "sweep"
            assert journal.n_steps == 3  # steps 0..2 inclusive


class TestArgumentsCheckedBeforeJournal:
    """A journaled run refuses what the plain runner refuses, with the
    same message, before it creates its journal."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_steps": -1},
            {"per_provider_utility": -5.0},
            {"extra_utility_per_step": float("nan")},
        ],
        ids=["max_steps", "utility", "extra"],
    )
    def test_sweep(self, tmp_path, scenario, bad):
        inputs = (scenario.population, scenario.policy, scenario.taxonomy)
        with pytest.raises(ValidationError) as plain:
            run_expansion_sweep(*inputs, **bad)
        path = tmp_path / "sweep.journal"
        with pytest.raises(ValidationError) as journaled:
            resumable_sweep(*inputs, journal_path=str(path), **bad)
        assert str(journaled.value) == str(plain.value)
        assert not path.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"rounds": 0},
            {"per_provider_utility": -1.0},
            {"extra_utility_per_round": float("nan")},
        ],
        ids=["rounds", "utility", "extra"],
    )
    def test_dynamics(self, tmp_path, scenario, bad):
        inputs = (scenario.population, scenario.policy, scenario.taxonomy)
        arguments = {"rounds": ROUNDS, **bad}
        with pytest.raises(ValidationError) as plain:
            run_dynamics(*inputs, **arguments)
        path = tmp_path / "dynamics.journal"
        with pytest.raises(ValidationError) as journaled:
            resumable_dynamics(*inputs, journal_path=str(path), **arguments)
        assert str(journaled.value) == str(plain.value)
        assert not path.exists()
