"""The vectorized batch violation engine and its sweep-aware cache.

:class:`BatchViolationEngine` evaluates Definition 1, Eqs. 12-16, and
Definitions 2-5 over a :class:`~repro.perf.compiled.CompiledPopulation`
using NumPy kernels instead of the reference engine's per-provider Python
loop.  Semantics match :class:`~repro.core.engine.ViolationEngine`
exactly, including the implicit-zero completion of Section 5; the parity
suite in ``tests/properties/test_batch_parity.py`` holds the two engines
bit-for-bit equal on the paper's worked example and hundreds of
randomized scenarios.

Three layers of reuse make policy sweeps cheap:

1. **Compilation** — the population is flattened once (see
   :mod:`repro.perf.compiled`); evaluating another policy touches only
   arrays.
2. **Report caching** — policies are fingerprinted by their entry *set*
   (names are ignored: two equally-named policies with different entries
   never collide, two differently-named but identical policies share one
   evaluation).
3. **Delta evaluation** — the total severity decomposes as a sum of
   independent per-``(attribute, purpose)`` column contributions, so a
   candidate differing from the previously evaluated policy in only a few
   columns (the shape produced by single-rule widening and best-response
   search) recomputes just those columns and patches the cached totals.

Severity per provider and column is tracked as a pair
``(violation, findings)`` where ``findings`` counts dimension-level
exceedances; ``w_i`` is ``findings > 0``, which keeps the binary and
severity views consistent by construction — the same invariant the
reference engine derives from :func:`~repro.core.violation.find_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .._validation import check_probability
from ..obs import active_observer
from ..core.default import DefaultModel
from ..core.engine import ViolationEngine
from ..core.policy import HousePolicy
from ..core.population import Population, Provider
from ..core.ppdb import PPDBCertificate
from ..core.sensitivity import SensitivityModel
from ..exceptions import UnknownProviderError, ValidationError
from .compiled import CompiledPopulation

#: A policy fingerprint: the entry set rendered as plain tuples.
PolicyFingerprint = frozenset[tuple[str, str, int, int, int]]

#: One column's policy side: the (V, G, R) rank triples of every policy
#: entry sharing the column's (attribute, purpose), in sorted order.
_ColumnEntries = tuple[tuple[int, int, int], ...]


def policy_fingerprint(policy: HousePolicy) -> PolicyFingerprint:
    """A name-independent, order-independent identity for *policy*.

    Two policies with equal fingerprints produce identical evaluations
    (``HousePolicy`` equality is the same entry-set comparison).
    Memoised on the (immutable) policy instance: sweeps and their
    caches fingerprint the same policy many times per round.
    """
    cached = policy._fingerprint
    if cached is None:
        cached = frozenset(
            (
                entry.attribute,
                entry.tuple.purpose,
                entry.tuple.visibility,
                entry.tuple.granularity,
                entry.tuple.retention,
            )
            for entry in policy.entries
        )
        policy._fingerprint = cached
    return cached


def policy_columns(policy: HousePolicy) -> dict[tuple[str, str], _ColumnEntries]:
    """Group a policy's entries by ``(attribute, purpose)`` column.

    The decomposition the delta paths diff: two policies evaluate
    identically on every column whose entry set matches, so only the
    differing columns need recomputation (see
    :func:`repro.simulation.widening.policy_delta_columns`).  Memoised
    on the policy instance like :func:`policy_fingerprint`; treat the
    returned mapping as immutable.
    """
    cached = policy._columns
    if cached is None:
        grouped: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
        for entry in policy.entries:
            key = (entry.attribute, entry.tuple.purpose)
            grouped.setdefault(key, []).append(
                (
                    entry.tuple.visibility,
                    entry.tuple.granularity,
                    entry.tuple.retention,
                )
            )
        cached = {key: tuple(sorted(ranks)) for key, ranks in grouped.items()}
        policy._columns = cached
    return cached


def changed_column_keys(
    before: Mapping[tuple[str, str], _ColumnEntries],
    after: Mapping[tuple[str, str], _ColumnEntries],
) -> tuple[tuple[str, str], ...]:
    """The sorted ``(attribute, purpose)`` keys whose entries differ.

    The one column-diff everything shares: the engine's delta path and
    the simulation layer's
    :func:`repro.simulation.widening.policy_delta_columns` both compare
    decompositions through this helper, so "changed" means the same
    thing at every layer.
    """
    keys = set(before) | set(after)
    return tuple(
        sorted(key for key in keys if before.get(key) != after.get(key))
    )


def column_contribution(
    compiled: CompiledPopulation,
    key: tuple[str, str],
    entries: _ColumnEntries,
    *,
    implicit_zero: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One column's ``(violation, finding-count)`` vectors (Eq. 14).

    Every policy entry in the column is compared against every matching
    explicit preference row and, when the completion is on, against the
    implicit zero tuple of the providers that supplied the attribute
    without covering the purpose.  A column's vectors depend only on its
    entry ranks and the compiled preference rows, so a recomputed
    contribution is bit-for-bit identical to a cached one — the
    invariant the delta path rests on (see :func:`sum_column_arrays`).
    """
    n = len(compiled)
    column = compiled.column(*key)
    violations = np.zeros(n, dtype=np.float64)
    counts = np.zeros(n, dtype=np.float64)
    for ranks in entries:
        policy_ranks = np.array(ranks, dtype=np.int64)
        if column.n_rows:
            exceed = np.maximum(policy_ranks - column.row_ranks, 0)
            weighted = (exceed * column.row_weights).sum(axis=1)
            found = (exceed > 0).sum(axis=1).astype(np.float64)
            violations += np.bincount(
                column.row_providers, weights=weighted, minlength=n
            )
            counts += np.bincount(
                column.row_providers, weights=found, minlength=n
            )
        if implicit_zero and column.n_implicit:
            # The implicit preference is <pr, 0, 0, 0>: the exceedance
            # equals the policy ranks themselves.
            weighted = (policy_ranks * column.implicit_weights).sum(axis=1)
            found = float((policy_ranks > 0).sum())
            violations[column.implicit_providers] += weighted
            counts[column.implicit_providers] += found
    return violations, counts


def sum_column_arrays(
    n: int,
    column_arrays: Mapping[tuple[str, str], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Total ``(violations, counts)`` from per-column vectors, canonically.

    Columns are accumulated in sorted key order — always, on every
    evaluation path.  Float addition is not associative, so a fixed
    summation order is what makes a delta round (reuse unchanged column
    vectors, recompute only changed ones) bit-for-bit identical to a
    full recompute: both sum bitwise-equal operands in the same order.
    """
    violations = np.zeros(n, dtype=np.float64)
    counts = np.zeros(n, dtype=np.float64)
    for key in sorted(column_arrays):
        column_violations, column_counts = column_arrays[key]
        violations += column_violations
        counts += column_counts
    return violations, counts


def row_contribution(
    compiled: CompiledPopulation,
    key: tuple[str, str],
    entries: _ColumnEntries,
    rows: np.ndarray,
    *,
    implicit_zero: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`column_contribution` restricted to the given provider *rows*.

    *rows* must be a sorted ``int64`` array of distinct provider rows;
    the returned ``(violations, counts)`` vectors have shape
    ``(len(rows),)`` and position ``i`` carries exactly the value the
    full kernel would put at ``rows[i]``: the per-entry accumulation
    runs in the same order over the same selected preference rows, so
    patching a cached total with these values is bit-for-bit identical
    to a fresh full evaluation.  :meth:`BatchViolationEngine.append`
    and :meth:`~BatchViolationEngine.update` use this to re-score only
    the providers they touched.
    """
    column = compiled.column(*key)
    k = int(rows.shape[0])
    violations = np.zeros(k, dtype=np.float64)
    counts = np.zeros(k, dtype=np.float64)
    if column.n_rows:
        keep = np.isin(column.row_providers, rows)
        sub_providers = np.searchsorted(rows, column.row_providers[keep])
        sub_ranks = column.row_ranks[keep]
        sub_weights = column.row_weights[keep]
        any_rows = bool(sub_providers.size)
    else:
        any_rows = False
    if implicit_zero and column.n_implicit:
        imp_keep = np.isin(column.implicit_providers, rows)
        imp_rows = np.searchsorted(rows, column.implicit_providers[imp_keep])
        imp_weights = column.implicit_weights[imp_keep]
        any_implicit = bool(imp_rows.size)
    else:
        any_implicit = False
    for ranks in entries:
        policy_ranks = np.array(ranks, dtype=np.int64)
        if any_rows:
            exceed = np.maximum(policy_ranks - sub_ranks, 0)
            weighted = (exceed * sub_weights).sum(axis=1)
            found = (exceed > 0).sum(axis=1).astype(np.float64)
            violations += np.bincount(sub_providers, weights=weighted, minlength=k)
            counts += np.bincount(sub_providers, weights=found, minlength=k)
        if any_implicit:
            weighted = (policy_ranks * imp_weights).sum(axis=1)
            found = float((policy_ranks > 0).sum())
            violations[imp_rows] += weighted
            counts[imp_rows] += found
    return violations, counts


def assemble_report(
    policy_name: str,
    violations: np.ndarray,
    counts: np.ndarray,
    *,
    ids: tuple[Hashable, ...],
    segments: tuple[str | None, ...],
    thresholds: np.ndarray,
    strict: bool,
) -> BatchReport:
    """A :class:`BatchReport` from raw severity/count arrays.

    The single place the aggregate arithmetic lives: every report the
    batch engine hands out, tombstoned rows left out or not, is built
    here, so every evaluation path derives ``P(W)``, ``P(Default)``, and
    the Eq. 16 total identically.
    """
    n = len(ids)
    violated = counts > 0
    if strict:
        defaulted = violations > thresholds
    else:
        defaulted = violations >= thresholds
    n_violated = int(violated.sum())
    n_defaulted = int(defaulted.sum())
    return BatchReport(
        policy_name=policy_name,
        n_providers=n,
        n_violated=n_violated,
        n_defaulted=n_defaulted,
        violation_probability=(n_violated / n) if n else 0.0,
        default_probability=(n_defaulted / n) if n else 0.0,
        total_violations=float(violations.sum()),
        provider_ids=ids,
        violations=violations,
        violated=violated,
        defaulted=defaulted,
        thresholds=thresholds,
        segments=segments,
    )


@dataclass(frozen=True)
class BatchReport:
    """An :class:`~repro.core.engine.EngineReport`-compatible batch result.

    The aggregate fields (``n_providers`` .. ``total_violations``) carry
    the same names and meanings as the reference report; the per-provider
    view is array-backed instead of materialising
    :class:`~repro.core.engine.ProviderOutcome` objects, which is what
    keeps sweep evaluation allocation-free.  All arrays are row-aligned
    with ``provider_ids``.
    """

    policy_name: str
    n_providers: int
    n_violated: int
    n_defaulted: int
    violation_probability: float
    default_probability: float
    total_violations: float
    provider_ids: tuple[Hashable, ...]
    violations: np.ndarray  # (N,) float64 — Violation_i (Eq. 15)
    violated: np.ndarray  # (N,) bool — w_i (Definition 1)
    defaulted: np.ndarray  # (N,) bool — default_i (Definition 4)
    thresholds: np.ndarray  # (N,) float64 — v_i
    segments: tuple[str | None, ...]

    def violated_ids(self) -> tuple[Hashable, ...]:
        """Providers with ``w_i = 1``, in population order."""
        return tuple(
            pid for pid, flag in zip(self.provider_ids, self.violated) if flag
        )

    def defaulted_ids(self) -> tuple[Hashable, ...]:
        """Providers with ``default_i = 1``, in population order."""
        return tuple(
            pid for pid, flag in zip(self.provider_ids, self.defaulted) if flag
        )

    def violation_of(self, provider_id: Hashable) -> float:
        """``Violation_i`` for one provider."""
        return float(self.violations[self._row(provider_id)])

    def is_violated(self, provider_id: Hashable) -> bool:
        """``w_i`` for one provider."""
        return bool(self.violated[self._row(provider_id)])

    def is_defaulted(self, provider_id: Hashable) -> bool:
        """``default_i`` for one provider."""
        return bool(self.defaulted[self._row(provider_id)])

    def _row(self, provider_id: Hashable) -> int:
        try:
            return self.provider_ids.index(provider_id)
        except ValueError:
            raise UnknownProviderError(provider_id) from None

    def __str__(self) -> str:
        return (
            f"BatchReport[{self.policy_name}]: N={self.n_providers}, "
            f"P(W)={self.violation_probability:.4f}, "
            f"P(Default)={self.default_probability:.4f}, "
            f"Violations={self.total_violations:g}"
        )


@dataclass(frozen=True)
class _Evaluation:
    """Cached per-policy arrays: severity and finding counts per row.

    ``columns`` records the policy's column decomposition at evaluation
    time so an append or update can re-derive any row's totals for this
    policy without re-fingerprinting the policy.
    """

    violations: np.ndarray  # (N,) float64
    counts: np.ndarray  # (N,) float64 (integer-valued)
    columns: dict[tuple[str, str], _ColumnEntries]


#: Tombstoned fraction of the rows above which :meth:`BatchViolationEngine.remove`
#: compacts: the survivors are compiled afresh and the caches start over.
COMPACT_THRESHOLD = 0.5


class BatchViolationEngine:
    """Vectorized multi-policy evaluation over one compiled population.

    The engine also takes population churn — :meth:`remove`,
    :meth:`append`, :meth:`update` — without recompiling, so one engine
    serves a whole dynamics or widening-game run.  After any sequence of
    mutations every result equals that of a fresh engine over the
    providers still present, bit for bit.

    Parameters
    ----------
    population:
        A :class:`~repro.core.population.Population` (compiled on the
        spot) or an existing :class:`CompiledPopulation`.  A mutation
        changes the compilation the engine evaluates, so a compilation
        is not to be shared with another engine once either mutates.
    sensitivities, default_model:
        Optional overrides, honoured exactly like the reference engine's.
        Only valid when *population* is not already compiled (a compiled
        population has its models baked into the weight tensors).
    implicit_zero:
        Whether Section 5's implicit-zero completion applies
        (default True, as in the paper).
    max_cached_reports:
        Upper bound on memoised per-policy evaluations; the oldest entry
        is evicted first.  Each cached evaluation holds two ``float64[N]``
        arrays.
    """

    __slots__ = (
        "_compiled",
        "_implicit_zero",
        "_max_cached",
        "_epoch",
        "_cache",
        "_base_fingerprint",
        "_base_columns",
        "_base_column_arrays",
        "_interval_cache",
    )

    def __init__(
        self,
        population: Population | CompiledPopulation,
        *,
        sensitivities: SensitivityModel | None = None,
        default_model: DefaultModel | None = None,
        implicit_zero: bool = True,
        max_cached_reports: int = 128,
    ) -> None:
        if isinstance(population, CompiledPopulation):
            if sensitivities is not None or default_model is not None:
                raise ValidationError(
                    "model overrides must be given when compiling, not when "
                    "wrapping an already-compiled population"
                )
            self._compiled = population
        else:
            self._compiled = CompiledPopulation(
                population,
                sensitivities=sensitivities,
                default_model=default_model,
            )
        self._implicit_zero = bool(implicit_zero)
        if max_cached_reports < 1:
            raise ValidationError("max_cached_reports must be >= 1")
        self._max_cached = int(max_cached_reports)
        self._epoch = 0
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._cache: dict[PolicyFingerprint, _Evaluation] = {}
        # Delta-evaluation base: the most recent fully decomposed policy.
        self._base_fingerprint: PolicyFingerprint | None = None
        self._base_columns: dict[tuple[str, str], _ColumnEntries] = {}
        self._base_column_arrays: dict[
            tuple[str, str], tuple[np.ndarray, np.ndarray]
        ] = {}
        # Static severity intervals per policy fingerprint (lint layer).
        self._interval_cache: dict[PolicyFingerprint, object] = {}

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    @property
    def compiled(self) -> CompiledPopulation:
        """The compiled population this engine evaluates against."""
        return self._compiled

    @property
    def population(self) -> Population:
        """The providers still present (the given population until the
        first mutation)."""
        return self._compiled.population

    @property
    def implicit_zero(self) -> bool:
        """Whether the implicit-zero completion is applied."""
        return self._implicit_zero

    @property
    def cached_policies(self) -> int:
        """Number of memoised per-policy evaluations."""
        return len(self._cache)

    @property
    def epoch(self) -> int:
        """Mutation counter, part of journal resume identity.

        +1 for each non-empty :meth:`remove`, :meth:`append` or
        :meth:`update`, and +1 more for each compaction.
        """
        return self._epoch

    @property
    def tombstones(self) -> int:
        """Removed providers whose rows await compaction."""
        return self._compiled.dead_count

    def evaluate(self, policy: HousePolicy) -> BatchReport:
        """The full :class:`BatchReport` for *policy* (cached by content)."""
        _check_policy(policy)
        evaluation = self._evaluate(policy)
        return self._to_report(policy.name, evaluation)

    # ``report`` mirrors ViolationEngine.report()'s name for callers that
    # hold a policy-bound pair (engine, policy).
    def report(self, policy: HousePolicy) -> BatchReport:
        """Alias of :meth:`evaluate`."""
        return self.evaluate(policy)

    def close(self) -> None:
        """Release resources.  A no-op: the engine holds only arrays.

        Exists so the engine supports the context-manager protocol and
        the ``try``/``finally`` pattern of the round loops.
        """

    def __enter__(self) -> "BatchViolationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def evaluate_policies(
        self, policies: Iterable[HousePolicy]
    ) -> list[BatchReport]:
        """Evaluate a policy sweep, reusing work across candidates.

        Candidates are evaluated in order; each one is served from the
        report cache when its fingerprint was already seen, from the delta
        path when it shares most columns with the previous candidate, and
        from a full (still vectorized) pass otherwise.
        """
        return [self.evaluate(policy) for policy in policies]

    def static_intervals(self, policy: HousePolicy):
        """The lint layer's severity intervals for *policy* (cached).

        Runs :func:`repro.lint.intervals.interval_analysis` over the
        providers still present with the engine's own sensitivity/default
        models and implicit-zero setting, in ``"provider"`` weight-bounds
        mode — the intervals are then point-exact per provider, which is
        what lets :meth:`certify` answer statically with a certificate
        identical to the evaluated one.  Cached per policy fingerprint
        until the next mutation.
        """
        from ..lint.intervals import interval_analysis

        _check_policy(policy)
        fingerprint = policy_fingerprint(policy)
        cached = self._interval_cache.get(fingerprint)
        if cached is not None:
            return cached
        compiled = self._compiled
        intervals = interval_analysis(
            policy,
            compiled.population,
            sensitivities=compiled.sensitivities,
            default_model=compiled.default_model,
            implicit_zero=self._implicit_zero,
            weight_bounds="provider",
        )
        self._interval_cache[fingerprint] = intervals
        return intervals

    def certify(
        self,
        policy: HousePolicy,
        alpha: float,
        *,
        early_exit: bool = False,
        static: bool = False,
    ) -> PPDBCertificate:
        """Definition 3's alpha-PPDB certificate under *policy*.

        With ``early_exit=True`` and an uncached policy, evaluation stops
        as soon as the violated-provider count exceeds the budget
        ``alpha x N`` — the certificate is then marked non-exhaustive and
        its ``violation_probability`` is a lower bound (sufficient to
        prove the check failed).

        With ``static=True`` the verdict is derived from the lint
        layer's severity intervals (:meth:`static_intervals`) without
        evaluating the population at all: the static finding counts
        decide each provider's ``w_i`` exactly (Definition 1 is
        weight-independent), so the certificate is field-for-field
        identical to the evaluated one — a property the parity suite
        holds over randomized populations.  ``static`` and
        ``early_exit`` are mutually exclusive.

        ``N`` counts the providers still present, so every path agrees
        with a fresh engine over them.
        """
        _check_policy(policy)
        if static and early_exit:
            raise ValidationError(
                "static certification never evaluates, so early_exit "
                "does not apply; pass one or the other"
            )
        alpha = check_probability(alpha, "alpha")
        n = self._compiled.alive_count
        if n == 0:
            return PPDBCertificate(
                alpha=alpha,
                violation_probability=0.0,
                satisfied=True,
                n_providers=0,
                violated_providers=(),
                policy_name=policy.name,
            )
        if static:
            certificate = self.static_intervals(policy).certificate(alpha)
            obs = active_observer()
            if obs is not None:
                obs.inc("engine.batch.static_certifications")
                obs.inc("engine.batch.static_skipped_providers", n)
            return certificate
        if early_exit and policy_fingerprint(policy) not in self._cache:
            certificate = self._certify_early_exit(policy, alpha)
            if certificate is not None:
                return certificate
        counts = self._alive_array(self._evaluate(policy).counts)
        violated = _violated_ids(self._compiled.alive_ids, counts)
        p_w = len(violated) / n
        return PPDBCertificate(
            alpha=alpha,
            violation_probability=p_w,
            satisfied=p_w <= alpha,
            n_providers=n,
            violated_providers=violated,
            policy_name=policy.name,
        )

    def reference_engine(self, policy: HousePolicy) -> ViolationEngine:
        """The reference oracle for *policy*: same inputs, Python loop.

        Used by the parity suite and available for spot-checking a batch
        result against the slow-but-simple implementation.
        """
        compiled = self._compiled
        return ViolationEngine(
            policy,
            compiled.population,
            sensitivities=compiled.sensitivities,
            default_model=compiled.default_model,
            implicit_zero=self._implicit_zero,
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def remove(self, provider_ids: Iterable[Hashable]) -> None:
        """Remove providers without recompiling.

        Their rows are tombstoned.  No row moves and per-provider sums
        are independent, so cached evaluations stay valid; reports leave
        the tombstoned rows out when they are assembled.  Once more than
        :data:`COMPACT_THRESHOLD` of the rows are tombstoned, the
        survivors are compiled afresh and the caches start over.
        """
        ids = tuple(provider_ids)
        if not ids:
            return
        compiled = self._compiled
        rows = compiled.remove(ids)
        self._mutated()
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.removals", int(rows.size))
            obs.inc("delta.reused", compiled.alive_count)
            obs.set_gauge("delta.tombstones", compiled.dead_count)
            obs.set_gauge("delta.epoch", self._epoch)
        if compiled.dead_count > COMPACT_THRESHOLD * len(compiled):
            self._compiled = compiled.compacted()
            self._reset_caches()
            self._epoch += 1
            if obs is not None:
                obs.inc("delta.compactions")
                obs.set_gauge("delta.tombstones", 0)
                obs.set_gauge("delta.epoch", self._epoch)

    def append(self, providers: Iterable[Provider]) -> None:
        """Add providers after the last row; re-scores only their rows."""
        added = tuple(providers)
        if not added:
            return
        rows = self._compiled.append(added)
        self._mutated()
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.appends", int(rows.size))
        self._rescore_rows(rows)

    def update(self, providers: Iterable[Provider]) -> None:
        """Replace providers in place (matched by id); re-scores only
        their rows."""
        updates = tuple(providers)
        if not updates:
            return
        rows = self._compiled.update(updates)
        self._mutated()
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.updates", int(rows.size))
        self._rescore_rows(rows)

    def _mutated(self) -> None:
        self._epoch += 1
        # The intervals were derived from the providers present before.
        self._interval_cache.clear()

    def _rescore_rows(self, rows: np.ndarray) -> None:
        """Re-score the sorted, distinct *rows* in every cached evaluation.

        The compiled stores already describe the new provider state, so
        each memoised evaluation's totals for *rows* are recomputed from
        the *current* columns (:func:`row_contribution`) while every
        other row's totals are reused untouched.  Rows past the old array
        length (appended providers) grow the cached arrays first.
        Restricted contributions are memoised by ``(column key, entry
        ranks)``, so overlapping policies (a widening path) pay each
        column's gather once per mutation, not once per policy.

        Cached arrays are **replaced, never mutated** — previously
        returned :class:`BatchReport`\\ s alias them and keep their
        pre-mutation values.
        """
        n = len(self._compiled)
        memo: dict[
            tuple[tuple[str, str], _ColumnEntries],
            tuple[np.ndarray, np.ndarray],
        ] = {}

        def restricted(
            key: tuple[str, str], entries: _ColumnEntries
        ) -> tuple[np.ndarray, np.ndarray]:
            token = (key, entries)
            contribution = memo.get(token)
            if contribution is None:
                contribution = row_contribution(
                    self._compiled,
                    key,
                    entries,
                    rows,
                    implicit_zero=self._implicit_zero,
                )
                memo[token] = contribution
            return contribution

        def patched(array: np.ndarray, contribution: np.ndarray) -> np.ndarray:
            grown = np.zeros(n, dtype=np.float64)
            grown[: array.shape[0]] = array
            grown[rows] = contribution
            return grown

        for fingerprint, evaluation in list(self._cache.items()):
            patch_violations = np.zeros(rows.shape[0], dtype=np.float64)
            patch_counts = np.zeros(rows.shape[0], dtype=np.float64)
            # Same sorted order as sum_column_arrays, so the patched rows
            # equal what a fresh full evaluation would put there.
            for key in sorted(evaluation.columns):
                contribution = restricted(key, evaluation.columns[key])
                patch_violations += contribution[0]
                patch_counts += contribution[1]
            self._cache[fingerprint] = _Evaluation(
                violations=patched(evaluation.violations, patch_violations),
                counts=patched(evaluation.counts, patch_counts),
                columns=evaluation.columns,
            )
        base_arrays = {}
        for key, (violations, counts) in self._base_column_arrays.items():
            contribution = restricted(key, self._base_columns[key])
            base_arrays[key] = (
                patched(violations, contribution[0]),
                patched(counts, contribution[1]),
            )
        self._base_column_arrays = base_arrays
        obs = active_observer()
        if obs is not None:
            cached = len(self._cache)
            obs.inc("delta.rescored", int(rows.size) * cached)
            obs.inc("delta.reused", (n - int(rows.size)) * cached)
            obs.set_gauge("delta.tombstones", self._compiled.dead_count)
            obs.set_gauge("delta.epoch", self._epoch)

    # ------------------------------------------------------------------
    # evaluation core
    # ------------------------------------------------------------------

    def _evaluate(self, policy: HousePolicy) -> _Evaluation:
        fingerprint = policy_fingerprint(policy)
        cached = self._cache.get(fingerprint)
        obs = active_observer()
        if cached is not None:
            if obs is not None:
                obs.inc("engine.batch.cache_hits")
            return cached
        start = perf_counter() if obs is not None else 0.0
        columns = policy_columns(policy)
        if self._base_fingerprint is not None:
            changed = self._changed_columns(columns)
            # Patch the cached totals when the candidate shares at least
            # one untouched column with the base; otherwise recompute.
            if len(changed) < len(set(self._base_columns) | set(columns)):
                evaluation = self._evaluate_delta(columns, changed)
                self._base_fingerprint = fingerprint
                self._remember(fingerprint, evaluation)
                if obs is not None:
                    obs.inc("engine.batch.delta_evaluations")
                    obs.observe(
                        "engine.batch.evaluate_seconds",
                        perf_counter() - start,
                        path="delta",
                    )
                return evaluation
        evaluation = self._evaluate_full(columns)
        self._base_fingerprint = fingerprint
        self._remember(fingerprint, evaluation)
        if obs is not None:
            obs.inc("engine.batch.full_evaluations")
            obs.observe(
                "engine.batch.evaluate_seconds",
                perf_counter() - start,
                path="full",
            )
        return evaluation

    def _changed_columns(
        self, columns: Mapping[tuple[str, str], _ColumnEntries]
    ) -> list[tuple[str, str]]:
        # Sorted for determinism only (stable counters and
        # hash-randomization-proof traces); since totals are re-summed
        # canonically by sum_column_arrays, the order does not affect
        # the numbers.
        return list(changed_column_keys(self._base_columns, columns))

    def _evaluate_full(
        self, columns: Mapping[tuple[str, str], _ColumnEntries]
    ) -> _Evaluation:
        column_arrays = {
            key: self._column_contribution(key, entries)
            for key, entries in columns.items()
        }
        violations, counts = sum_column_arrays(len(self._compiled), column_arrays)
        column_map = dict(columns)
        self._base_columns = column_map
        self._base_column_arrays = column_arrays
        return _Evaluation(violations=violations, counts=counts, columns=column_map)

    def _evaluate_delta(
        self,
        columns: Mapping[tuple[str, str], _ColumnEntries],
        changed: Sequence[tuple[str, str]],
    ) -> _Evaluation:
        # Recompute only the changed columns, then re-sum every column
        # vector canonically (sum_column_arrays).  The re-sum costs
        # O(columns x rows) cheap adds but buys exactness: the result is
        # bit-for-bit what _evaluate_full would produce for the same
        # target, so delta, full, and cache-served paths are freely
        # interchangeable.  The base's column vectors live in
        # _base_column_arrays, so cache eviction of the base report does
        # not invalidate the delta path.
        new_columns = dict(self._base_columns)
        new_arrays = dict(self._base_column_arrays)
        for key in changed:
            new_arrays.pop(key, None)
            new_columns.pop(key, None)
            entries = columns.get(key)
            if entries:
                new_arrays[key] = self._column_contribution(key, entries)
                new_columns[key] = entries
        violations, counts = sum_column_arrays(len(self._compiled), new_arrays)
        self._base_columns = new_columns
        self._base_column_arrays = new_arrays
        return _Evaluation(violations=violations, counts=counts, columns=new_columns)

    def _column_contribution(
        self, key: tuple[str, str], entries: _ColumnEntries
    ) -> tuple[np.ndarray, np.ndarray]:
        return column_contribution(
            self._compiled, key, entries, implicit_zero=self._implicit_zero
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _remember(
        self, fingerprint: PolicyFingerprint, evaluation: _Evaluation
    ) -> None:
        if fingerprint not in self._cache and len(self._cache) >= self._max_cached:
            # Evict the oldest memoised evaluation.  If it happens to be
            # the delta base, _evaluate_delta notices the missing cache
            # entry and falls back to a full pass — no state to clean.
            del self._cache[next(iter(self._cache))]
        self._cache[fingerprint] = evaluation

    def _alive_array(self, array: np.ndarray) -> np.ndarray:
        """*array* restricted to the rows of the providers still present."""
        compiled = self._compiled
        return array[compiled.alive_rows] if compiled.dead_count else array

    def _to_report(self, policy_name: str, evaluation: _Evaluation) -> BatchReport:
        compiled = self._compiled
        return assemble_report(
            policy_name,
            self._alive_array(evaluation.violations),
            self._alive_array(evaluation.counts),
            ids=compiled.alive_ids,
            segments=compiled.alive_segments,
            thresholds=self._alive_array(compiled.thresholds),
            strict=compiled.strict,
        )

    def _certify_early_exit(
        self, policy: HousePolicy, alpha: float
    ) -> PPDBCertificate | None:
        """Stop counting once the ``alpha x N`` violation budget is blown.

        Walks the policy's columns, accumulating per-provider finding
        counts; as soon as the number of violated providers still present
        exceeds the budget, Definition 3 is already refuted and a
        non-exhaustive certificate is returned.  Returns ``None`` when
        the walk finishes within budget — the caller then produces the
        exact certificate (and the full evaluation lands in the cache, so
        nothing is wasted).
        """
        compiled = self._compiled
        n = compiled.alive_count
        budget = alpha * n
        counts = np.zeros(len(compiled), dtype=np.float64)
        for key, entries in policy_columns(policy).items():
            counts += self._column_contribution(key, entries)[1]
            present = self._alive_array(counts)
            n_violated = int((present > 0).sum())
            if n_violated > budget:
                obs = active_observer()
                if obs is not None:
                    obs.inc("engine.batch.early_exits")
                return PPDBCertificate(
                    alpha=alpha,
                    violation_probability=n_violated / n,
                    satisfied=False,
                    n_providers=n,
                    violated_providers=_violated_ids(compiled.alive_ids, present),
                    policy_name=policy.name,
                    exhaustive=False,
                )
        return None


def _check_policy(policy: object) -> None:
    if not isinstance(policy, HousePolicy):
        raise ValidationError(
            f"policy must be a HousePolicy, got {type(policy).__name__}"
        )


def _violated_ids(
    ids: tuple[Hashable, ...], counts: np.ndarray
) -> tuple[Hashable, ...]:
    return tuple(pid for pid, count in zip(ids, counts) if count > 0)
