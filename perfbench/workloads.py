"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Every workload is a closed loop with one client and no think time: op
*i + 1* starts when op *i* has returned.  All inputs derive from the run
seed, so one seed always gives the same inputs.

A workload has

* ``op(i)`` — the timed operation;
* ``check(i, output)`` — cheap invariants run on every op inside the
  loop; raises :class:`CheckFailed`, returns the form to keep for
  ``verify``;
* ``verify(kept)`` — the reference comparison for the sampled ops
  (``i % SAMPLE_EVERY == 0``), run after the timed loop so it adds
  nothing to ``work_s``; returns ``{i: problem}`` for the ops that fail.

Its constructor builds the inputs and calls ``lap()`` between the steps
that build them, so set-up is timed in laps.  The references share
generation and widening with the ops they check, so
:func:`check_inputs` pins what those two produce at a fixed seed.

The traced entry points (``run_expansion_sweep``, ``run_dynamics``,
``default_cdf_from_sweep``, ``repro.cli.main``) are looked up on their
module at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import tempfile

import repro.analysis as analysis
import repro.cli as cli
import repro.datasets as datasets
import repro.simulation as simulation
from repro.core import ViolationEngine
from repro.datasets.export import export_scenario, scenario_documents
from repro.datasets.scenario import Scenario
from repro.perf import BatchViolationEngine, CompiledPopulation
from repro.policy_lang.serializer import policy_to_dict
from repro.simulation.widening import WideningStep, widen, widening_path

#: Sampled ops are those with ``i % SAMPLE_EVERY == 0``.  25 is coprime
#: with the 52 document sets and the 48 populations, so no two sampled
#: ops of a run share their input.
SAMPLE_EVERY = 25

#: The parity suites' tolerance for float totals (Eq. 15 / 16 sums).
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: Op index of the untimed warm-up op.
WARMUP = -1

#: SHA-256 of :func:`inputs_documents` as generation and widening made
#: them when the benchmark was written.
INPUTS_DIGEST = "ab588d85fedfb219dc02926315c90e1db6c458cf81e47079037ee0589b606450"


class CheckFailed(Exception):
    """An op's output broke an invariant or disagreed with the reference."""


def subseed(seed: int, i: int) -> int:
    """The seed of input *i* of a run with *seed*."""
    return (seed * 1_000_003 + i) % 2**31


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _non_decreasing(values) -> bool:
    values = list(values)
    return all(a <= b for a, b in zip(values, values[1:]))


def inputs_documents() -> list[dict]:
    """``healthcare_scenario(100, seed=0)``'s documents, then the policy
    documents of its 10-level uniform and diagnosis/income-scoped
    widening ladders."""
    scenario = datasets.healthcare_scenario(100, seed=0)
    documents = [scenario_documents(scenario)]
    for scope in SynthSweep.SCOPES:
        for _, policy in widening_path(
            scenario.policy, WideningStep.uniform(1), scenario.taxonomy,
            SynthSweep.LEVELS, attributes=scope,
        ):
            documents.append(policy_to_dict(policy, scenario.taxonomy))
    return documents


def inputs_digest() -> str:
    text = json.dumps(inputs_documents(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_inputs() -> str | None:
    """``None`` when generation and widening still give the committed
    inputs; otherwise what differs.  Every workload's inputs come from
    them, so when they differ the run timed other work than the
    parent's, and every op of it counts as failed."""
    digest = inputs_digest()
    if digest == INPUTS_DIGEST:
        return None
    return (f"inputs digest {digest[:16]} != committed {INPUTS_DIGEST[:16]}: "
            "generation or widening gives other providers or policies")


class SynthSweep:
    """Section 9's widening ledger recomputed in full, with no reuse between ops.

    Op *i* generates ``healthcare_scenario(100)`` from its own seed and
    runs a 10-level uniform sweep (full and cache-hit evaluations, as
    the ladders saturate) and a 10-level sweep scoped to diagnosis and
    income (column-delta evaluations), then reads the ledger: the
    default CDF, the best step and the crossover step of each.
    """

    name = "synth_sweep"
    PROVIDERS = 100
    LEVELS = 10
    SCOPES = (None, ("diagnosis", "income"))

    def __init__(self, seed: int, workdir: str, lap) -> None:
        self.seed = seed

    def op(self, i: int):
        scenario = datasets.healthcare_scenario(
            self.PROVIDERS, seed=subseed(self.seed, i)
        )
        sweeps = tuple(
            simulation.run_expansion_sweep(
                scenario.population,
                scenario.policy,
                scenario.taxonomy,
                max_steps=self.LEVELS,
                per_provider_utility=scenario.per_provider_utility,
                extra_utility_per_step=scenario.extra_utility_per_step,
                attributes=scope,
            )
            for scope in self.SCOPES
        )
        ledgers = tuple(
            (analysis.default_cdf_from_sweep(sweep), sweep.best_step(),
             sweep.crossover_step())
            for sweep in sweeps
        )
        return scenario, sweeps, ledgers

    def check(self, i: int, output):
        scenario, sweeps, ledgers = output
        for sweep, (cdf, best, crossover) in zip(sweeps, ledgers):
            _require(len(sweep.rows) == self.LEVELS + 1, "row count != levels + 1")
            _require(
                _non_decreasing(cdf.cumulative_defaults)
                and cdf.cumulative_defaults == sweep.default_counts(),
                "cumulative defaults decrease",
            )
            _require(best in sweep.rows, "best step is not a row")
            _require(
                crossover is None or 1 <= crossover <= self.LEVELS,
                "crossover step out of range",
            )
        uniform, scoped = (sweep.rows[0] for sweep in sweeps)
        _require(
            (uniform.violation_probability, uniform.default_probability,
             uniform.total_violations)
            == (scoped.violation_probability, scoped.default_probability,
                scoped.total_violations),
            "the two sweeps disagree on the base policy",
        )
        return scenario, sweeps

    def verify(self, kept: dict) -> dict[int, str]:
        """Sweep rows against the reference ``ViolationEngine``."""
        problems = {}
        for i, (scenario, sweeps) in kept.items():
            population = scenario.population
            references = {}  # saturated ladders repeat policies
            for scope, sweep in zip(self.SCOPES, sweeps):
                path = widening_path(
                    scenario.policy,
                    WideningStep.uniform(1),
                    scenario.taxonomy,
                    self.LEVELS,
                    attributes=scope,
                )
                for (_, policy), row in zip(path, sweep.rows):
                    key = tuple(policy)
                    if key not in references:
                        references[key] = ViolationEngine(policy, population).report()
                    ref = references[key]
                    if not (
                        row.violation_probability == ref.violation_probability
                        and row.default_probability == ref.default_probability
                        and row.n_future == len(population) - ref.n_defaulted
                        and _close(row.total_violations, ref.total_violations)
                    ):
                        problems[i] = f"step {row.step} of {scope} != reference"
        return problems

    def close(self) -> None:
        pass


class DocsAudit:
    """An auditor's CLI pass over exported policy-language documents.

    Set-up exports 52 healthcare document sets of 30 providers, each
    policy widened two levels (P(W) = 1, P(Default) about 0.2).  Op *i*
    runs ``lint``, ``evaluate``, ``certify`` and ``sweep`` on set
    ``i % 52`` in-process through ``repro.cli.main``; each command
    parses its three documents again.  The op cost of one set varies by
    8% (sd) with its seed; spreading a run's ops over 52 sets keeps the
    p50 and p90 of runs with different seeds close.
    """

    name = "docs_audit"
    SETS = 52
    PROVIDERS = 30
    WIDEN = 2
    ALPHA = 0.5
    STEPS = 10
    COMMANDS = (
        ("lint", "--alpha", str(ALPHA), "--format", "json"),
        ("evaluate", "--json"),
        ("certify", "--alpha", str(ALPHA), "--json"),
        ("sweep", "--steps", str(STEPS), "--json"),
    )

    def __init__(self, seed: int, workdir: str, lap) -> None:
        self.dir = tempfile.mkdtemp(prefix="docs-", dir=workdir)
        self.sets = []
        for j in range(self.SETS):
            base = datasets.healthcare_scenario(
                self.PROVIDERS, seed=subseed(seed, j)
            )
            scenario = Scenario(
                name=f"healthcare-{j}",
                taxonomy=base.taxonomy,
                policy=widen(
                    base.policy,
                    WideningStep.uniform(self.WIDEN),
                    base.taxonomy,
                    name=f"{base.policy.name}+{self.WIDEN}",
                ),
                population=base.population,
                per_provider_utility=base.per_provider_utility,
                extra_utility_per_step=base.extra_utility_per_step,
            )
            paths = export_scenario(scenario, self.dir)
            documents = (
                "--taxonomy", paths["taxonomy"],
                "--policy", paths["policy"],
                "--population", paths["population"],
            )
            self.sets.append((scenario, documents))
            lap()
        self._references: dict[int, dict] = {}

    def op(self, i: int):
        _, documents = self.sets[i % self.SETS]
        results = []
        for command, *options in self.COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, *documents, *options])
            results.append((code, stdout.getvalue()))
        return results

    def check(self, i: int, output):
        try:
            (lint_code, lint), (eval_code, report), (cert_code, cert), (
                sweep_code, sweep
            ) = ((code, json.loads(text)) for code, text in output)
        except ValueError as error:
            raise CheckFailed(f"output is not JSON: {error}") from None
        _require(eval_code == 0 and sweep_code == 0, "evaluate/sweep exit != 0")
        _require(report["n_providers"] == self.PROVIDERS, "wrong population size")
        exceeded = report["violation_probability"] > self.ALPHA
        _require(
            cert_code == int(exceeded) and cert["satisfied"] == (not exceeded),
            "certify verdict does not match P(W) against alpha",
        )
        _require(
            lint_code == int(lint["summary"]["errors"] > 0),
            "lint exit code does not match its error count",
        )
        _require(
            any(d["code"] == "PVL110" for d in lint["diagnostics"]) == exceeded,
            "lint alpha-PPDB finding does not match P(W) against alpha",
        )
        _require(len(sweep) == self.STEPS + 1, "row count != levels + 1")
        _require(
            _non_decreasing(-row["n_future"] for row in sweep),
            "cumulative defaults decrease",
        )
        _require(
            (sweep[0]["violation_probability"], sweep[0]["default_probability"])
            == (report["violation_probability"], report["default_probability"]),
            "sweep step 0 disagrees with evaluate",
        )
        return report, cert, sweep

    def _reference(self, j: int) -> dict:
        """Batch-engine values for document set *j* (computed once)."""
        if j not in self._references:
            scenario, _ = self.sets[j]
            engine = BatchViolationEngine(scenario.population)
            report = engine.evaluate(scenario.policy)
            steps = []
            for _, policy in widening_path(
                scenario.policy, WideningStep.uniform(1), scenario.taxonomy,
                self.STEPS,
            ):
                step = engine.evaluate(policy)
                steps.append(
                    (step.violation_probability, step.default_probability,
                     step.n_providers - step.n_defaulted)
                )
            self._references[j] = {
                "report": report,
                "providers": [
                    (str(pid), bool(violated), float(violation), bool(defaulted))
                    for pid, violated, violation, defaulted in zip(
                        report.provider_ids, report.violated,
                        report.violations, report.defaulted,
                    )
                ],
                "steps": steps,
            }
        return self._references[j]

    def verify(self, kept: dict) -> dict[int, str]:
        """CLI JSON against ``BatchViolationEngine`` on the same documents."""
        problems = {}
        for i, (report, cert, sweep) in kept.items():
            ref = self._reference(i % self.SETS)
            expected = ref["report"]
            providers = [
                (p["provider"], p["violated"], p["violation"], p["defaulted"])
                for p in report["providers"]
            ]
            checks = {
                "evaluate P(W)/P(Default)": (
                    report["violation_probability"],
                    report["default_probability"],
                ) == (expected.violation_probability, expected.default_probability),
                "evaluate total": _close(
                    report["total_violations"], expected.total_violations
                ),
                "evaluate providers": len(providers) == len(ref["providers"])
                and all(
                    got[0] == want[0] and got[1] == want[1] and got[3] == want[3]
                    and _close(got[2], want[2])
                    for got, want in zip(providers, ref["providers"])
                ),
                "certify": cert["satisfied"]
                == (expected.violation_probability <= self.ALPHA)
                and cert["violated_providers"]
                == [str(pid) for pid in expected.violated_ids()]
                and _close(cert["total_violations"], expected.total_violations),
                "sweep": [
                    (row["violation_probability"], row["default_probability"],
                     row["n_future"])
                    for row in sweep
                ] == ref["steps"],
            }
            failed = [name for name, ok in checks.items() if not ok]
            if failed:
                problems[i] = f"{', '.join(failed)} != reference"
        return problems

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class ChurnDynamics:
    """Section 10's widen-and-default dynamics on recurring populations.

    Set-up generates one healthcare pool of 2000 providers and cuts 48
    fixed 1000-provider populations from it with ``Population.subset``.
    Op *i* runs 40 rounds of ``run_dynamics`` on population ``i % 48``,
    so each population recurs about 4 times in a run; about 570
    providers depart, which crosses the engine's compaction threshold
    once.  The op cost differs between populations, and with few of
    them the p50 would land between their clusters.  The utility
    parameters come from the seed.
    """

    name = "churn_dynamics"
    POOL = 2000
    PROVIDERS = 1000
    POPULATIONS = 48
    ROUNDS = 40

    def __init__(self, seed: int, workdir: str, lap) -> None:
        pool = datasets.healthcare_scenario(self.POOL, seed=subseed(seed, 0))
        lap()
        self.policy, self.taxonomy = pool.policy, pool.taxonomy
        ids = pool.population.ids()
        self.populations = []
        for j in range(self.POPULATIONS):
            self.populations.append(
                pool.population.subset(
                    random.Random(subseed(seed, j + 1)).sample(ids, self.PROVIDERS)
                )
            )
            lap()
        rng = random.Random(seed)
        self.utility = rng.uniform(5.0, 15.0)
        self.extra_per_round = rng.uniform(1.0, 3.0)
        self._references: dict[int, list] = {}

    def op(self, i: int):
        return simulation.run_dynamics(
            self.populations[i % self.POPULATIONS],
            self.policy,
            self.taxonomy,
            rounds=self.ROUNDS,
            per_provider_utility=self.utility,
            extra_utility_per_round=self.extra_per_round,
        )

    def check(self, i: int, output):
        _require(
            len(output) == self.ROUNDS or output[-1].n_remaining == 0,
            "rounds missing",
        )
        expected_start = len(self.populations[i % self.POPULATIONS])
        for index, outcome in enumerate(output):
            _require(outcome.round_index == index, "round index out of order")
            _require(
                outcome.n_start == expected_start,
                "a round does not start where the previous one ended",
            )
            _require(
                outcome.n_remaining == outcome.n_start - outcome.n_defaulted
                and outcome.n_defaulted == len(outcome.defaulted_providers),
                "n_remaining != n_start - n_defaulted",
            )
            expected_start = outcome.n_remaining
        return output

    def _reference(self, j: int) -> list:
        """The rounds from a fresh ``BatchViolationEngine`` per round.

        The survivors are compiled again only when someone departed; the
        engine is new every round, so every round is a full evaluation.
        """
        if j not in self._references:
            population, policy = self.populations[j], self.policy
            compiled = CompiledPopulation(population)
            rounds = []
            for index in range(self.ROUNDS):
                if not len(population):
                    break
                if index:
                    policy = widen(policy, WideningStep.uniform(1), self.taxonomy)
                report = BatchViolationEngine(compiled).evaluate(policy)
                defaulted = report.defaulted_ids()
                remaining = report.n_providers - len(defaulted)
                rounds.append(
                    (report.n_providers, len(defaulted), remaining,
                     report.violation_probability, report.total_violations,
                     remaining * (self.utility + self.extra_per_round * index),
                     defaulted)
                )
                if defaulted:
                    gone = set(defaulted)
                    population = population.subset(
                        pid for pid in population.ids() if pid not in gone
                    )
                    compiled = CompiledPopulation(population)
            self._references[j] = rounds
        return self._references[j]

    def verify(self, kept: dict) -> dict[int, str]:
        """Rounds bit-for-bit against the rebuild-per-round loop."""
        problems = {}
        for i, outcomes in kept.items():
            got = [
                (o.n_start, o.n_defaulted, o.n_remaining, o.violation_probability,
                 o.total_violations, o.utility, o.defaulted_providers)
                for o in outcomes
            ]
            if got != self._reference(i % self.POPULATIONS):
                problems[i] = "rounds differ from the rebuild-per-round loop"
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (SynthSweep, DocsAudit, ChurnDynamics)}
