"""Command-line interface: the violation model over JSON documents.

A file-driven front end for auditors and houses.  All commands consume the
policy-language documents (taxonomy, policy, population) and print either
fixed-width tables or JSON (``--json``).

Commands
--------
``evaluate``   full model evaluation: per-provider table + aggregates
``certify``    Definition 3: alpha-PPDB verdict (exit code 1 when violated)
``sweep``      Section 9: widening ledger with break-even T* per level
``whatif``     compare a candidate policy against the baseline
``validate``   semantic document validation (exit code 1 on problems)
``lint``       static policy analysis with coded diagnostics (PVL...)
``init-db``    create a sqlite privacy database from the documents
``db-report``  evaluate the stored state of a privacy database
``db-evict``   remove defaulted providers from a privacy database
``journal``    inspect and verify a run journal
``obs``        render a saved metrics snapshot (text/prometheus/json)

Every command also accepts the observability flags ``--metrics PATH``
(write a JSON metrics snapshot on exit), ``--trace`` (print the span
tree to stderr), and ``-v``/``-vv`` (structured logs on stderr); see
:mod:`repro.obs`.

Operational failures — missing or unreadable files, malformed JSON,
corrupt databases or journals, interrupted runs — exit with code 2 and
print exactly one coded line on stderr (``error[PVL9xx]: ...``); see
:mod:`repro.resilience.diagnostics` for the code registry.  ``sweep``
accepts ``--journal`` to checkpoint each widening level (the sweep's
``journal_path``) and ``--resume`` to continue an interrupted run
bit-for-bit.  ``certify`` and ``db-evict`` evaluate on the batch engine
(:class:`~repro.perf.batch.BatchViolationEngine`); ``evaluate`` and
``db-report`` print the reference engine's report.

Example
-------
::

    python -m repro evaluate --taxonomy t.json --policy p.json \\
        --population pop.json
    python -m repro certify ... --alpha 0.1
    python -m repro sweep ... --steps 5 --utility 10 --extra-per-step 2
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sqlite3
import sys
from collections.abc import Sequence

from .analysis import batch_certification_document, format_table, summarize
from .core import ViolationEngine
from .core.policy import HousePolicy
from .core.population import Population
from .exceptions import (
    JournalError,
    PrivacyModelError,
    ProcessKilled,
    StorageError,
    ValidationError,
)
from .obs import Observability, disable_observability, enable_observability
from .obs.render import FORMATS as OBS_FORMATS
from .perf import BatchViolationEngine
from .policy_lang import (
    parse_policy,
    parse_population,
    parse_taxonomy,
    preference_documents,
    validate_policy_document,
    validate_preference_document,
)
from .resilience.diagnostics import (
    CLI_DOCUMENT,
    CLI_INTERRUPTED,
    CLI_IO,
    CLI_JOURNAL,
    CLI_JSON,
    CLI_STORAGE,
    coded_error,
)
from .simulation import WideningStep, run_expansion_sweep
from .simulation.whatif import WhatIfAnalyzer
from .storage import PrivacyDatabase, atomic_write_text
from .taxonomy.builder import Taxonomy


def _load_json(path: str) -> dict:
    """Read one JSON document from *path*."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _parse(kind: str, parser, *args, **kwargs):
    """Run a document parser, converting structural crashes to model errors.

    A document that is valid JSON but the wrong *shape* (``"providers":
    42``) makes the parsers trip over builtin exceptions; the CLI
    contract is one coded line and exit 2, never a traceback.
    """
    try:
        return parser(*args, **kwargs)
    except PrivacyModelError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ValidationError(f"malformed {kind} document: {error}") from error


def _render(payload: object) -> str:
    """A command's JSON payload as the text ``--json`` prints."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _export(args: argparse.Namespace, text: str) -> None:
    """Atomically write a command's rendered JSON payload to ``--output``.

    The file holds the bytes ``--json`` prints.  The document appears
    complete or not at all: a crash (or an injected disk-full fault)
    mid-export never leaves a truncated file behind.
    """
    if args.output:
        atomic_write_text(args.output, text + "\n")


def _load_inputs(args: argparse.Namespace) -> tuple[Taxonomy, HousePolicy, Population]:
    """The common (taxonomy, policy, population) triple."""
    taxonomy = _parse("taxonomy", parse_taxonomy, _load_json(args.taxonomy))
    policy = _parse("policy", parse_policy, _load_json(args.policy), taxonomy)
    population = _parse(
        "population", parse_population, _load_json(args.population), taxonomy
    )
    return taxonomy, policy, population


def _report_payload(engine: ViolationEngine) -> dict:
    """The evaluate command's JSON payload."""
    report = engine.report()
    return {
        "policy": report.policy_name,
        "n_providers": report.n_providers,
        "violation_probability": report.violation_probability,
        "default_probability": report.default_probability,
        "total_violations": report.total_violations,
        "providers": [
            {
                "provider": str(outcome.provider_id),
                "violated": outcome.violated,
                "violation": outcome.violation,
                "threshold": (
                    None
                    if outcome.threshold == float("inf")
                    else outcome.threshold
                ),
                "defaulted": outcome.defaulted,
            }
            for outcome in report.outcomes
        ],
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Full model evaluation over the documents."""
    _, policy, population = _load_inputs(args)
    engine = ViolationEngine(policy, population)
    text = _render(_report_payload(engine)) if args.json or args.output else ""
    _export(args, text)
    if args.json:
        print(text)
        return 0
    report = engine.report()
    rows = [
        [
            str(outcome.provider_id),
            int(outcome.violated),
            round(outcome.violation, 4),
            "inf" if outcome.threshold == float("inf") else outcome.threshold,
            int(outcome.defaulted),
        ]
        for outcome in report.outcomes
    ]
    print(
        format_table(
            ["provider", "w_i", "Violation_i", "v_i", "default_i"],
            rows,
            title=f"evaluation of {report.policy_name!r}",
        )
    )
    print()
    print(f"P(W)       = {report.violation_probability:.4f}")
    print(f"P(Default) = {report.default_probability:.4f}")
    print(f"Violations = {report.total_violations:g}")
    print()
    print(summarize(report).to_text())
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    """Definition 3 verdict; exit code 1 when the threshold is exceeded."""
    _, policy, population = _load_inputs(args)
    document = batch_certification_document(
        BatchViolationEngine(population), policy, args.alpha
    )
    certificate = document.certificate
    text = document.to_json() if args.json or args.output else ""
    _export(args, text)
    print(text if args.json else certificate)
    return 0 if certificate.satisfied else 1


def _sweep_payload(sweep) -> list[dict]:
    """The sweep command's JSON payload."""
    return [
        {
            "step": row.step,
            "violation_probability": row.violation_probability,
            "default_probability": row.default_probability,
            "n_future": row.n_future,
            "utility_future": row.utility_future,
            "break_even_extra_utility": row.break_even_extra_utility,
            "justified": row.justified,
        }
        for row in sweep.rows
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Section 9 widening ledger, optionally checkpointed to a journal."""
    taxonomy, policy, population = _load_inputs(args)
    if args.resume and not args.journal:
        raise JournalError("--resume requires --journal PATH")
    if args.journal:
        if args.resume and not os.path.exists(args.journal):
            raise JournalError(
                f"--resume given but there is no journal at {args.journal!r}"
            )
        if not args.resume and os.path.exists(args.journal):
            raise JournalError(
                f"{args.journal!r} already exists; pass --resume to "
                f"continue the interrupted run"
            )
    sweep = run_expansion_sweep(
        population,
        policy,
        taxonomy,
        step=WideningStep.uniform(1),
        max_steps=args.steps,
        per_provider_utility=args.utility,
        extra_utility_per_step=args.extra_per_step,
        guarded=args.guarded,
        journal_path=args.journal or None,
    )
    text = _render(_sweep_payload(sweep)) if args.json or args.output else ""
    _export(args, text)
    if args.json:
        print(text)
        return 0
    rows = [
        [
            row.step,
            round(row.violation_probability, 4),
            round(row.default_probability, 4),
            row.n_future,
            row.utility_future,
            round(row.break_even_extra_utility, 4),
            "yes" if row.justified else "no",
        ]
        for row in sweep.rows
    ]
    print(
        format_table(
            ["step", "P(W)", "P(Default)", "N_fut", "U_fut", "T*", "justified"],
            rows,
            title=(
                f"expansion sweep (U={args.utility}, "
                f"T/step={args.extra_per_step})"
            ),
        )
    )
    crossover = sweep.crossover_step()
    print()
    print(f"peak at step {sweep.best_step().step}; crossover at {crossover}")
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    """Compare a candidate policy against the baseline."""
    taxonomy, policy, population = _load_inputs(args)
    candidate = _parse(
        "candidate", parse_policy, _load_json(args.candidate), taxonomy
    )
    analyzer = WhatIfAnalyzer(
        population,
        policy,
        per_provider_utility=args.utility,
        alpha=args.alpha,
    )
    result = analyzer.assess(candidate, extra_utility=args.extra)
    if args.json:
        print(
            json.dumps(
                {
                    "candidate": result.candidate.policy_name,
                    "violation_probability_delta": result.violation_probability_delta,
                    "default_probability_delta": result.default_probability_delta,
                    "severity_delta": result.severity_delta,
                    "justified": result.assessment.justified,
                    "alpha_ppdb_satisfied": result.certificate.satisfied,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(result.summary())
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    """Section 10: forecast a candidate's defaults from observed history."""
    from .estimation import (
        ThresholdEstimator,
        forecast_defaults,
        observe_widening_history,
    )

    taxonomy = _parse("taxonomy", parse_taxonomy, _load_json(args.taxonomy))
    population = _parse(
        "population", parse_population, _load_json(args.population), taxonomy
    )
    history = [
        _parse("history policy", parse_policy, _load_json(path), taxonomy)
        for path in args.history
    ]
    candidate = _parse(
        "candidate", parse_policy, _load_json(args.candidate), taxonomy
    )
    estimator = ThresholdEstimator(
        observe_widening_history(population, history)
    )
    forecast = forecast_defaults(
        estimator,
        population,
        candidate,
        per_provider_utility=args.utility,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "candidate": forecast.policy_name,
                    "n_providers": forecast.n_providers,
                    "expected_defaults": forecast.expected_defaults,
                    "expected_default_fraction": forecast.expected_default_fraction,
                    "certain_defaults": [
                        str(p) for p in forecast.certain_defaults
                    ],
                    "possible_defaults": [
                        str(p) for p in forecast.possible_defaults
                    ],
                    "break_even_extra_utility": forecast.break_even_extra_utility,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"candidate {forecast.policy_name!r}: expected "
            f"{forecast.expected_defaults:.1f} defaults of "
            f"{forecast.n_providers} providers "
            f"({forecast.expected_default_fraction:.1%}); "
            f"T* = {forecast.break_even_extra_utility:.4g}"
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Semantic validation; exit code 1 when problems were found."""
    taxonomy = _parse("taxonomy", parse_taxonomy, _load_json(args.taxonomy))
    problems: list[str] = []
    if args.policy:
        problems += validate_policy_document(_load_json(args.policy), taxonomy)
    if args.population:
        for document in preference_documents(_load_json(args.population)):
            problems += validate_preference_document(document, taxonomy)
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        return 1
    print("OK: documents are valid against the taxonomy")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static policy analysis; exit code gated on diagnostic severity."""
    from .lint import LintConfig, Severity, lint_documents, render

    taxonomy = _parse("taxonomy", parse_taxonomy, _load_json(args.taxonomy))
    documents = dict(
        policy=_load_json(args.policy) if args.policy else None,
        population=_load_json(args.population) if args.population else None,
        candidate=_load_json(args.candidate) if args.candidate else None,
    )
    config = LintConfig(
        alpha=args.alpha,
        utility=args.utility,
        max_extra_utility=args.max_extra_utility,
    )
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    report = lint_documents(
        taxonomy, **documents, config=config, select=select, ignore=ignore
    )
    if args.write_baseline:
        from .lint import write_baseline

        recorded = write_baseline(args.write_baseline, report)
        print(
            f"wrote {recorded} fingerprint(s) to {args.write_baseline}",
            file=sys.stderr,
        )
    suppressed = 0
    if args.baseline:
        from .lint import apply_baseline, load_baseline

        report, suppressed = apply_baseline(
            report, load_baseline(args.baseline)
        )
    artifacts = {
        kind: path
        for kind, path in (
            ("taxonomy", args.taxonomy),
            ("policy", args.policy),
            ("population", args.population),
            ("candidate", args.candidate),
        )
        if path
    }
    print(render(report, args.format, artifacts=artifacts))
    if suppressed and args.format == "text":
        print(f"{suppressed} baselined finding(s) suppressed")
    fail_on = (
        None if args.fail_on == "never" else Severity.from_name(args.fail_on)
    )
    return report.exit_code(fail_on)


def cmd_init_db(args: argparse.Namespace) -> int:
    """Create a sqlite privacy database from the documents."""
    _, policy, population = _load_inputs(args)
    with PrivacyDatabase.create(args.database) as db:
        db.install(policy, population)
    print(
        f"created {args.database}: {len(population)} providers, "
        f"{len(policy)} policy entries"
    )
    return 0


def cmd_db_report(args: argparse.Namespace) -> int:
    """Evaluate a privacy database's stored state."""
    with PrivacyDatabase.open(args.database) as db:
        report = db.engine().report()
        audit = db.audit_log.report()
    print(report)
    print(
        f"audit log: {audit.total_events} events, "
        f"{audit.violating_accesses} violating accesses "
        f"(observed rate {audit.observed_violation_rate:.3f})"
    )
    return 0


def cmd_db_evict(args: argparse.Namespace) -> int:
    """Remove defaulted providers from a privacy database."""
    with PrivacyDatabase.open(args.database) as db:
        evicted = db.evict_defaulted()
    if evicted:
        print(f"evicted {len(evicted)} providers: {', '.join(evicted)}")
    else:
        print("no defaulted providers")
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    """Inspect and chain-verify a run journal."""
    from .resilience import journal_summary

    payload = journal_summary(args.journal)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{payload['path']}: {payload['kind']} run, "
        f"{payload['steps']} steps recorded, chain verified"
    )
    print(f"fingerprint {payload['fingerprint']}")
    print(f"head        {payload['head']}")
    for key, value in sorted(payload["params"].items()):
        print(f"  {key} = {value!r}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Render a saved metrics snapshot (see ``--metrics``)."""
    from .obs import render_snapshot

    print(render_snapshot(_load_json(args.snapshot), args.format))
    return 0


def _add_document_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--taxonomy", required=True, help="taxonomy JSON file")
    parser.add_argument("--policy", required=True, help="policy JSON file")
    parser.add_argument(
        "--population", required=True, help="population JSON file"
    )


def _obs_options() -> argparse.ArgumentParser:
    """The shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON metrics snapshot to PATH when the command exits",
    )
    group.add_argument(
        "--trace",
        action="store_true",
        help="print the recorded span tree to stderr when the command exits",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="structured logs on stderr (-v INFO, -vv DEBUG)",
    )
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    ``parse_args`` leaves a parser unchanged, so every :func:`main` call
    shares this one instead of rebuilding the tree of subcommands.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantify privacy violations (Banerjee et al., SDM 2011).",
    )
    obs_options = _obs_options()

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, parents=[obs_options], **kwargs)

    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate = add_parser(
        "evaluate", help="full model evaluation over documents"
    )
    _add_document_arguments(evaluate)
    evaluate.add_argument("--json", action="store_true", help="JSON output")
    evaluate.add_argument(
        "--output", help="atomically export the JSON report to this path"
    )
    evaluate.set_defaults(func=cmd_evaluate)

    certify = add_parser(
        "certify", help="alpha-PPDB verdict (exit 1 when violated)"
    )
    _add_document_arguments(certify)
    certify.add_argument("--alpha", type=float, required=True)
    certify.add_argument("--json", action="store_true")
    certify.add_argument(
        "--output",
        help="atomically export the certification document to this path",
    )
    certify.set_defaults(func=cmd_certify)

    sweep = add_parser("sweep", help="Section 9 widening ledger")
    _add_document_arguments(sweep)
    sweep.add_argument("--steps", type=int, default=5)
    sweep.add_argument("--utility", type=float, default=1.0)
    sweep.add_argument("--extra-per-step", type=float, default=0.25)
    sweep.add_argument("--json", action="store_true")
    sweep.add_argument(
        "--output", help="atomically export the JSON ledger to this path"
    )
    sweep.add_argument(
        "--journal",
        help="checkpoint each widening level to this run journal",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from --journal",
    )
    sweep.add_argument(
        "--guarded",
        action="store_true",
        help="spot-check the batch engine against the reference oracle",
    )
    sweep.set_defaults(func=cmd_sweep)

    whatif = add_parser(
        "whatif", help="compare a candidate policy against the baseline"
    )
    _add_document_arguments(whatif)
    whatif.add_argument("--candidate", required=True)
    whatif.add_argument("--extra", type=float, default=0.0)
    whatif.add_argument("--utility", type=float, default=1.0)
    whatif.add_argument("--alpha", type=float, default=0.1)
    whatif.add_argument("--json", action="store_true")
    whatif.set_defaults(func=cmd_whatif)

    forecast = add_parser(
        "forecast",
        help="forecast a candidate policy's defaults from observed history",
    )
    forecast.add_argument("--taxonomy", required=True)
    forecast.add_argument("--population", required=True)
    forecast.add_argument(
        "--history",
        required=True,
        nargs="+",
        help="deployed policy JSON files, oldest first",
    )
    forecast.add_argument("--candidate", required=True)
    forecast.add_argument("--utility", type=float, default=1.0)
    forecast.add_argument("--json", action="store_true")
    forecast.set_defaults(func=cmd_forecast)

    validate = add_parser(
        "validate", help="validate documents against the taxonomy"
    )
    validate.add_argument("--taxonomy", required=True)
    validate.add_argument("--policy")
    validate.add_argument("--population")
    validate.set_defaults(func=cmd_validate)

    lint = add_parser(
        "lint",
        help="static policy analysis with coded diagnostics (PVL...)",
    )
    lint.add_argument("--taxonomy", required=True, help="taxonomy JSON file")
    lint.add_argument("--policy", help="policy JSON file")
    lint.add_argument("--population", help="population JSON file")
    lint.add_argument(
        "--candidate", help="candidate widened policy JSON file"
    )
    lint.add_argument(
        "--alpha",
        type=float,
        help="enable static alpha-PPDB certification (PVL110)",
    )
    lint.add_argument(
        "--utility",
        type=float,
        default=1.0,
        help="per-provider utility U for the economics rules (default 1.0)",
    )
    lint.add_argument(
        "--max-extra-utility",
        type=float,
        help="attainable extra-utility bound for PVL202",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default text)",
    )
    lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "info", "never"],
        default="error",
        help="lowest severity that makes the exit code 1 (default error)",
    )
    lint.add_argument(
        "--select", help="comma-separated rule codes to run exclusively"
    )
    lint.add_argument("--ignore", help="comma-separated rule codes to skip")
    lint.add_argument(
        "--baseline",
        help=(
            "suppress the findings recorded in this baseline file; the "
            "exit code gates on new findings only"
        ),
    )
    lint.add_argument(
        "--write-baseline",
        help="record the (unsuppressed) findings as a new baseline file",
    )
    lint.set_defaults(func=cmd_lint)

    init_db = add_parser(
        "init-db", help="create a sqlite privacy database"
    )
    _add_document_arguments(init_db)
    init_db.add_argument("--database", required=True, help="sqlite path")
    init_db.set_defaults(func=cmd_init_db)

    db_report = add_parser(
        "db-report", help="evaluate a privacy database's stored state"
    )
    db_report.add_argument("database")
    db_report.set_defaults(func=cmd_db_report)

    db_evict = add_parser(
        "db-evict", help="remove defaulted providers"
    )
    db_evict.add_argument("database")
    db_evict.set_defaults(func=cmd_db_evict)

    journal = add_parser(
        "journal", help="inspect and verify a run journal"
    )
    journal.add_argument("journal", help="run journal path")
    journal.add_argument("--json", action="store_true")
    journal.set_defaults(func=cmd_journal)

    obs = add_parser(
        "obs", help="render a saved metrics snapshot"
    )
    obs.add_argument("snapshot", help="snapshot JSON written by --metrics")
    obs.add_argument(
        "--format",
        choices=list(OBS_FORMATS),
        default="text",
        help="output format (default text)",
    )
    obs.set_defaults(func=cmd_obs)

    return parser


def _setup_observability(args: argparse.Namespace) -> Observability | None:
    """Enable the observer (and stderr logging) per the global flags."""
    verbose = getattr(args, "verbose", 0)
    if verbose:
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if verbose >= 2 else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(
            logging.DEBUG if verbose >= 2 else logging.INFO
        )
    if getattr(args, "metrics", None) or getattr(args, "trace", False) or verbose:
        return enable_observability()
    return None


def _finish_observability(
    args: argparse.Namespace, observer: Observability | None
) -> None:
    """Export the snapshot / span tree the global flags asked for."""
    if observer is None:
        return
    disable_observability()
    snapshot = observer.snapshot()
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        try:
            atomic_write_text(
                metrics_path,
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            )
        except OSError as error:
            # The command's own outcome stands; the snapshot is advisory.
            print(coded_error(CLI_IO, str(error)), file=sys.stderr)
    if getattr(args, "trace", False):
        tree = observer.tracer.tree_text()
        print(tree if tree else "trace: no spans recorded", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    observer = _setup_observability(args)
    try:
        return _dispatch(args)
    finally:
        _finish_observability(args, observer)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, mapping failures to coded exit-2 lines."""
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe: exit quietly, the
        # conventional Unix behaviour.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)
    except json.JSONDecodeError as error:
        print(coded_error(CLI_JSON, f"invalid JSON input: {error}"), file=sys.stderr)
        return 2
    except OSError as error:
        print(coded_error(CLI_IO, str(error)), file=sys.stderr)
        return 2
    except ProcessKilled as error:
        print(coded_error(CLI_INTERRUPTED, str(error)), file=sys.stderr)
        return 2
    except JournalError as error:
        print(coded_error(CLI_JOURNAL, str(error)), file=sys.stderr)
        return 2
    except StorageError as error:
        print(coded_error(CLI_STORAGE, str(error)), file=sys.stderr)
        return 2
    except sqlite3.DatabaseError as error:
        print(coded_error(CLI_STORAGE, str(error)), file=sys.stderr)
        return 2
    except PrivacyModelError as error:
        print(coded_error(CLI_DOCUMENT, str(error)), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
