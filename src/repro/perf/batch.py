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
   search) recomputes just those columns and re-sums every column's
   vectors in one fixed order (:func:`sum_column_arrays`), so the result
   equals a full pass bit for bit.

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
from ..core.engine import ViolationEngine
from ..core.policy import HousePolicy
from ..core.population import Population
from ..core.ppdb import PPDBCertificate
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
) -> tuple[np.ndarray, np.ndarray]:
    """One column's ``(violation, finding-count)`` vectors (Eq. 14).

    Every policy entry in the column is compared against every matching
    explicit preference row and against the implicit zero tuple of the
    providers that supplied the attribute without covering the purpose.
    A column's vectors depend only on its entry ranks and the compiled
    preference rows, so a recomputed contribution is bit-for-bit
    identical to a cached one — the invariant the delta path rests on
    (see :func:`sum_column_arrays`).
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
        if column.n_implicit:
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


def assemble_report(
    policy_name: str,
    violations: np.ndarray,
    counts: np.ndarray,
    *,
    ids: tuple[Hashable, ...],
    segments: tuple[str | None, ...],
    thresholds: np.ndarray,
) -> BatchReport:
    """A :class:`BatchReport` from raw severity/count arrays.

    The single place the aggregate arithmetic lives: every report the
    batch engine hands out, tombstoned rows left out or not, is built
    here, so every evaluation path derives ``P(W)``, ``P(Default)``, and
    the Eq. 16 total identically.
    """
    n = len(ids)
    violated = counts > 0
    defaulted = violations > thresholds  # Definition 4's strict inequality
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
        return _ids_where(self.provider_ids, self.violated)

    def defaulted_ids(self) -> tuple[Hashable, ...]:
        """Providers with ``default_i = 1``, in population order."""
        return _ids_where(self.provider_ids, self.defaulted)

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
    """Cached per-policy arrays: severity and finding counts per row."""

    violations: np.ndarray  # (N,) float64
    counts: np.ndarray  # (N,) float64 (integer-valued)


#: Tombstoned fraction of the rows above which :meth:`BatchViolationEngine.remove`
#: compacts: the survivors' store is cut out by mask and the caches start over.
COMPACT_THRESHOLD = 0.5

#: Memoised per-policy evaluations an engine keeps; the oldest is evicted
#: first.  Each holds two ``float64[N]`` arrays.
MAX_CACHED_REPORTS = 128


class BatchViolationEngine:
    """Vectorized multi-policy evaluation over one compiled population.

    It evaluates the paper's model only: the providers' own sensitivity
    records and thresholds, Section 5's implicit-zero completion, and
    Definition 4's strict ``Violation_i > v_i``.  The reference
    :class:`~repro.core.engine.ViolationEngine` keeps the switches the
    ablations vary.

    The engine also takes the paper's one kind of population churn —
    defaulting providers leave (Definition 4) — through :meth:`remove`,
    without recompiling, so one engine serves a whole dynamics or
    widening-game run.  After any sequence of removals every result
    equals that of a fresh engine over the providers still present, bit
    for bit.

    Parameters
    ----------
    population:
        A :class:`~repro.core.population.Population` (compiled on the
        spot) or an existing :class:`CompiledPopulation`.  A removal
        changes the compilation the engine evaluates, so a compilation
        is not to be shared with another engine once either removes.

    At most :data:`MAX_CACHED_REPORTS` per-policy evaluations are
    memoised.
    """

    __slots__ = (
        "_compiled",
        "_epoch",
        "_cache",
        "_base_fingerprint",
        "_base_columns",
        "_base_column_arrays",
    )

    def __init__(self, population: Population | CompiledPopulation) -> None:
        if isinstance(population, CompiledPopulation):
            self._compiled = population
        else:
            self._compiled = CompiledPopulation(population)
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
        first removal)."""
        return self._compiled.population

    @property
    def cached_policies(self) -> int:
        """Number of memoised per-policy evaluations."""
        return len(self._cache)

    @property
    def epoch(self) -> int:
        """Mutation counter.

        +1 for each non-empty :meth:`remove`, and +1 more for each
        compaction.
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

    def certify(self, policy: HousePolicy, alpha: float) -> PPDBCertificate:
        """Definition 3's alpha-PPDB certificate under *policy*.

        ``w_i`` is read from the same cached evaluation :meth:`evaluate`
        reports, and ``N`` counts the providers still present, so the
        certificate agrees with a fresh engine over them.
        """
        _check_policy(policy)
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
        counts = self._alive_array(self._evaluate(policy).counts)
        violated = _ids_where(self._compiled.alive_ids, counts > 0)
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
        return ViolationEngine(policy, self._compiled.population)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def remove(self, provider_ids: Iterable[Hashable]) -> None:
        """Remove providers without recompiling.

        Their rows are tombstoned.  No row moves and per-provider sums
        are independent, so cached evaluations stay valid; reports leave
        the tombstoned rows out when they are assembled.  Once more than
        :data:`COMPACT_THRESHOLD` of the rows are tombstoned, the
        survivors' store is cut out of the compiled arrays by mask
        (:meth:`CompiledPopulation.compacted`, which walks no provider)
        and the caches start over.
        """
        ids = tuple(provider_ids)
        if not ids:
            return
        compiled = self._compiled
        rows = compiled.remove(ids)
        self._epoch += 1
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
            # Recompute only the changed columns when the candidate
            # shares at least one untouched column with the base;
            # otherwise evaluate every column.
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
            key: column_contribution(self._compiled, key, entries)
            for key, entries in columns.items()
        }
        violations, counts = sum_column_arrays(len(self._compiled), column_arrays)
        self._base_columns = dict(columns)
        self._base_column_arrays = column_arrays
        return _Evaluation(violations=violations, counts=counts)

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
                new_arrays[key] = column_contribution(self._compiled, key, entries)
                new_columns[key] = entries
        violations, counts = sum_column_arrays(len(self._compiled), new_arrays)
        self._base_columns = new_columns
        self._base_column_arrays = new_arrays
        return _Evaluation(violations=violations, counts=counts)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _remember(
        self, fingerprint: PolicyFingerprint, evaluation: _Evaluation
    ) -> None:
        cache = self._cache
        if fingerprint not in cache and len(cache) >= MAX_CACHED_REPORTS:
            # Evict the oldest memoised evaluation.  The delta base keeps
            # its own column vectors, so evicting it costs nothing there.
            del cache[next(iter(cache))]
        cache[fingerprint] = evaluation

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
        )


def _check_policy(policy: object) -> None:
    if not isinstance(policy, HousePolicy):
        raise ValidationError(
            f"policy must be a HousePolicy, got {type(policy).__name__}"
        )


def _ids_where(ids: tuple[Hashable, ...], mask: np.ndarray) -> tuple[Hashable, ...]:
    """The ids at the true rows of *mask*, gathered by index (ids may be
    any hashable, so they never become an array)."""
    return tuple([ids[row] for row in np.flatnonzero(mask).tolist()])
