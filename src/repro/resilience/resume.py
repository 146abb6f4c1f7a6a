"""What pins a run journal to its inputs, and the checkpoint step.

The long runs — :func:`~repro.simulation.scenario.run_expansion_sweep`,
:func:`~repro.simulation.dynamics.run_dynamics` and
:func:`~repro.estimation.observation.observe_widening_history` — take a
``journal_path`` and checkpoint one
:class:`~repro.resilience.journal.RunJournal` step per unit of work
(sweep level, dynamics round, observed history policy).  A run killed
between steps resumes from its journal and produces output
**bit-for-bit identical** to an uninterrupted run, because the journaled
and the unjournaled run are the same loop: recorded steps are replayed
from the journal, never re-evaluated, and live steps are computed
exactly as without a journal.

This module holds only the journal's side of that loop:

* :func:`pinned_journal` opens the journal pinned to an input
  **fingerprint** — resuming against different inputs is refused with a
  coded error instead of mixing two runs — and yields ``None`` when the
  run has no journal;
* :func:`checkpoint` records one live step and then visits the step's
  fault-injection kill site.

A journal holding shard checkpoints, a format only the retired
worker-pool sweeps wrote, is refused the same way.  Provider ids must
survive a JSON round trip (strings, ints) for a run to be journalable;
this is checked before the journal is opened.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Any

from ..core.policy import HousePolicy
from ..core.population import Population
from ..exceptions import JournalMismatchError, ResilienceError
from ..obs import active_observer, span
from ..policy_lang.serializer import policy_to_dict, preferences_to_dict
from ..policy_lang.serializer import sensitivities_to_dict
from .faults import active_plan
from .journal import RunJournal

# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _canonical_json(value: Any) -> str:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ResilienceError(
            f"run inputs are not JSON-canonicalizable: {error}"
        ) from error


def population_fingerprint(population: Population) -> str:
    """A content hash over a population's model-relevant state.

    Covers provider order, ids, preferences, supplied attributes,
    thresholds, segments, and the population's sensitivity model — every
    input the violation engines read.
    """
    document = {
        "providers": [
            {
                "preferences": preferences_to_dict(provider.preferences),
                "threshold": provider.threshold,
                "segment": provider.segment,
            }
            for provider in population
        ],
        "sensitivities": sensitivities_to_dict(population.sensitivity_model()),
    }
    return hashlib.sha256(_canonical_json(document).encode("utf-8")).hexdigest()


def journal_fingerprint(
    kind: str,
    *,
    population: Population,
    policies: Sequence[HousePolicy],
    params: dict[str, Any],
) -> str:
    """The input fingerprint a journal pins its run to.

    Hashes the run kind, the population fingerprint, every input policy
    (serialized with raw ranks, so taxonomy level names cannot alias)
    and the run parameters.  The hashed document also holds a constant
    ``"mutation_epoch": 0``, which journals have always carried; keeping
    it keeps every journal written so far resumable.
    """
    document = {
        "kind": kind,
        "population": population_fingerprint(population),
        "policies": [policy_to_dict(policy) for policy in policies],
        "params": params,
        "mutation_epoch": 0,
    }
    return hashlib.sha256(_canonical_json(document).encode("utf-8")).hexdigest()


def _check_journalable_ids(population: Population) -> None:
    for provider_id in population.ids():
        try:
            restored = json.loads(json.dumps(provider_id))
        except (TypeError, ValueError):
            restored = None
        if restored != provider_id:
            raise ResilienceError(
                f"provider id {provider_id!r} does not survive a JSON round "
                f"trip; journaled runs need string or integer ids"
            )


def _refuse_shard_checkpoints(journal: RunJournal) -> None:
    """Refuse a journal that holds retired shard checkpoints.

    Sweeps once evaluated on worker pools journaled each finished shard
    as a ``{"kind": "shard", ...}`` step between the level rows.  The
    serial engine cannot replay those partial results, so such a journal
    is refused rather than resumed.
    """
    if any(payload.get("kind") == "shard" for payload in journal.payloads()):
        raise JournalMismatchError(
            f"journal {journal.path!r} holds shard checkpoints from a "
            f"worker-pool sweep, a retired format that cannot be resumed; "
            f"remove it and rerun the sweep"
        )


# ---------------------------------------------------------------------------
# the journaled loop's two hooks
# ---------------------------------------------------------------------------


@contextmanager
def pinned_journal(
    path: str | None,
    kind: str,
    population: Population,
    policies: Sequence[HousePolicy],
    params: dict[str, Any],
    **span_fields: Any,
) -> Iterator[RunJournal | None]:
    """Open the *kind* journal at *path*, pinned to the run's inputs.

    Yields ``None`` when *path* is ``None``: an unjournaled run computes
    no fingerprint.  Otherwise creates the journal, or reopens it after
    an interruption — refusing it with
    :class:`~repro.exceptions.JournalMismatchError` when it was recorded
    for other inputs or holds shard checkpoints — and yields it inside a
    ``resume.<kind>`` span.  The caller replays ``journal.payloads()``
    and passes each live step to :func:`checkpoint`.
    """
    if path is None:
        yield None
        return
    _check_journalable_ids(population)
    fingerprint = journal_fingerprint(
        kind, population=population, policies=policies, params=params
    )
    with RunJournal.resume_or_create(
        path, kind=kind, fingerprint=fingerprint, params=params
    ) as journal, span(f"resume.{kind}", journal=path, **span_fields):
        _refuse_shard_checkpoints(journal)
        obs = active_observer()
        if obs is not None and journal.n_steps:
            obs.inc("resume.replayed_steps", journal.n_steps, kind=kind)
        yield journal


def checkpoint(journal: RunJournal, payload: dict[str, Any], site: str) -> None:
    """Record one live step, then visit its kill *site*.

    The step is committed before the site fires, so a run killed there
    resumes after the step rather than repeating it.
    """
    journal.record_step(payload)
    obs = active_observer()
    if obs is not None:
        obs.inc("resume.live_steps", kind=journal.kind)
    plan = active_plan()
    if plan is not None:
        plan.check(site)
