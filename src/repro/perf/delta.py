"""The incremental population engine: delta compile and delta evaluate.

Multi-round workloads (policy dynamics, the widening game, equilibrium
search) evolve their population between evaluations: providers default
and leave, join, or edit preferences.  Rebuilding the whole
:class:`~repro.perf.compiled.CompiledPopulation` on every churn event
costs ``O(population)``; the two classes here make it ``O(changed)``:

* :class:`MutableCompiledPopulation` — a compiled population whose
  stores accept in-place mutation.  **Removals are tombstones**: the row
  is masked out of the alive set and the NumPy column stores are not
  touched at all, so a departure round performs zero recompilation.
  **Appends and edits** patch the list-backed stores directly (rows stay
  non-decreasing) and invalidate only the lazily materialised columns.
  A compaction (full recompile of the survivors) happens only when the
  tombstone fraction crosses the configured threshold — never once per
  round.
* :class:`MutableBatchEngine` — a serial
  :class:`~repro.perf.batch.BatchViolationEngine` over the mutable
  store, kept for the lifetime of a run.  While no tombstones exist
  every call delegates wholesale, so static workloads are byte-identical
  to the bare batch engine.  Once rows are tombstoned the inner engine
  keeps evaluating over the full capacity arrays (dead rows included —
  their per-provider sums are independent, which is what makes masking
  exact) and the wrapper restricts the arrays to the alive rows at
  assembly time.  Structural mutations re-score only the changed rows
  through :meth:`~repro.perf.batch.BatchViolationEngine.rescore_rows`.

Bit-for-bit contract: after any mutation sequence, every report equals a
fresh compile-and-evaluate of the final population — per-provider sums
touch only that provider's own entries and weights, so row masking and
row-restricted rescoring perform the identical floating-point additions
in the identical order.  The property suite in
``tests/properties/test_mutation_parity.py`` holds this over hundreds of
randomized add/remove/edit sequences, cached and uncached.

Mutations advance a monotonic **epoch** (:attr:`MutableBatchEngine.epoch`),
which the resilience layer folds into journal fingerprints: a journal
recorded at epoch ``k`` refuses to resume a run whose engine sits at a
different epoch (see :func:`repro.resilience.resume.journal_fingerprint`).

Observability: ``delta.reused`` / ``delta.rescored`` count the
``(provider, policy)`` pairs carried over versus recomputed by
structural mutations, ``delta.removals`` / ``delta.appends`` /
``delta.updates`` count mutation rows, ``delta.compactions`` counts the
expensive event, and the ``delta.tombstones`` / ``delta.epoch`` gauges
track live state.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Hashable, Iterable

import numpy as np

from .._validation import check_probability
from ..core.default import DefaultModel
from ..core.engine import ViolationEngine
from ..core.policy import HousePolicy
from ..core.population import Population, Provider
from ..core.ppdb import PPDBCertificate
from ..core.sensitivity import NEUTRAL_SENSITIVITY, SensitivityModel
from ..exceptions import UnknownProviderError, ValidationError
from ..obs import active_observer
from .batch import (
    BatchReport,
    BatchViolationEngine,
    PolicyFingerprint,
    assemble_report,
    policy_fingerprint,
)
from .compiled import CompiledColumn, CompiledPopulation

#: Default tombstone fraction above which a removal triggers compaction.
#: Churn below this level never recompiles; pass ``None`` to disable
#: automatic compaction entirely.
COMPACT_THRESHOLD = 0.5


class MutableCompiledPopulation:
    """A compiled population whose stores accept in-place churn.

    Implements the same ``CompiledLike`` surface the batch kernels
    consume (:class:`~repro.perf.batch.CompiledLike`) over the full
    **capacity** row space — tombstoned rows included — plus the
    mutation operations :meth:`remove`, :meth:`append`, :meth:`update`,
    and :meth:`compact`.  The alive view (:attr:`population`,
    :attr:`alive_rows`, :attr:`alive_ids`) is what callers observe;
    capacity rows are an implementation detail of keeping the NumPy
    stores append-only.

    Parameters
    ----------
    population:
        The initial providers; compiled exactly once here.
    sensitivities, default_model:
        Optional model overrides, as for
        :class:`~repro.perf.compiled.CompiledPopulation`.  With no
        overrides (the common case) mutated rows derive their weights
        and thresholds directly from the :class:`Provider` objects —
        the same arithmetic, in the same order, as a fresh compile.
    """

    __slots__ = (
        "_sigma",
        "_override_sensitivities",
        "_override_default",
        "_providers",
        "_ids_list",
        "_segments_list",
        "_index",
        "_thresholds",
        "_strict",
        "_alive",
        "_dead",
        "_explicit_rows",
        "_explicit_providers",
        "_provided",
        "_weights",
        "_columns",
        "_provided_arrays",
        "_epoch",
        "_ids_tuple",
        "_segments_tuple",
        "_population_view",
        "_alive_rows_cache",
        "_alive_ids_cache",
        "_alive_segments_cache",
        "_models_epoch",
        "_sens_cache",
        "_default_cache",
    )

    def __init__(
        self,
        population: Population,
        *,
        sensitivities: SensitivityModel | None = None,
        default_model: DefaultModel | None = None,
    ) -> None:
        if not isinstance(population, Population):
            raise ValidationError(
                f"population must be a Population, got {type(population).__name__}"
            )
        self._override_sensitivities = sensitivities
        self._override_default = default_model
        self._sigma = population.attribute_sensitivities
        self._epoch = 0
        self._adopt(
            CompiledPopulation(
                population,
                sensitivities=sensitivities,
                default_model=default_model,
            )
        )

    def _adopt(self, compiled: CompiledPopulation) -> None:
        """Take ownership of a fresh compilation's state.

        The list-backed stores are rebuilt with the same walk the
        compiler performs, so entry order — and therefore every
        accumulation order downstream — matches the adopted compilation
        exactly.
        """
        population = compiled.population
        self._providers: list[Provider] = list(population.providers)
        self._ids_list: list[Hashable] = list(compiled.ids)
        self._segments_list: list[str | None] = list(compiled.segments)
        self._index: dict[Hashable, int] = {
            pid: row for row, pid in enumerate(self._ids_list)
        }
        self._thresholds = compiled.thresholds.copy()
        self._strict = compiled.strict
        explicit_rows: dict[
            tuple[str, str], tuple[list[int], list[tuple[int, int, int]]]
        ] = {}
        explicit_providers: dict[tuple[str, str], set[int]] = {}
        provided: dict[str, list[int]] = {}
        for row, provider in enumerate(population):
            preferences = provider.preferences
            for attribute in preferences.attributes_provided:
                provided.setdefault(attribute, []).append(row)
            for entry in preferences.entries:
                key = (entry.attribute, entry.purpose)
                rows_list, ranks_list = explicit_rows.setdefault(key, ([], []))
                rows_list.append(row)
                ranks_list.append(
                    (
                        entry.tuple.visibility,
                        entry.tuple.granularity,
                        entry.tuple.retention,
                    )
                )
                explicit_providers.setdefault(key, set()).add(row)
        self._explicit_rows = explicit_rows
        self._explicit_providers = explicit_providers
        self._provided = provided
        self._alive = np.ones(len(self._ids_list), dtype=bool)
        self._dead = 0
        self._weights: dict[str, np.ndarray] = {}
        self._columns: dict[tuple[str, str], CompiledColumn] = {}
        self._provided_arrays: dict[str, np.ndarray] = {}
        self._ids_tuple: tuple[Hashable, ...] | None = compiled.ids
        self._segments_tuple: tuple[str | None, ...] | None = compiled.segments
        self._population_view: Population | None = population
        self._alive_rows_cache: np.ndarray | None = None
        self._alive_ids_cache: tuple[Hashable, ...] | None = None
        self._alive_segments_cache: tuple[str | None, ...] | None = None
        self._models_epoch = -1
        self._sens_cache: SensitivityModel | None = None
        self._default_cache: DefaultModel | None = None

    # ------------------------------------------------------------------
    # CompiledLike surface (capacity row space)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids_list)

    def __repr__(self) -> str:
        return (
            f"MutableCompiledPopulation({self.alive_count} alive / "
            f"{len(self._ids_list)} rows, epoch {self._epoch})"
        )

    @property
    def ids(self) -> tuple[Hashable, ...]:
        """Provider ids over the full capacity row space."""
        if self._ids_tuple is None:
            self._ids_tuple = tuple(self._ids_list)
        return self._ids_tuple

    @property
    def segments(self) -> tuple[str | None, ...]:
        """Per-row segment labels over the full capacity row space."""
        if self._segments_tuple is None:
            self._segments_tuple = tuple(self._segments_list)
        return self._segments_tuple

    @property
    def thresholds(self) -> np.ndarray:
        """The capacity-aligned threshold vector ``v``."""
        return self._thresholds

    @property
    def strict(self) -> bool:
        """Definition 4's strict-inequality flag."""
        return self._strict

    def row_of(self, provider_id: Hashable) -> int:
        """The capacity row of an **alive** provider."""
        try:
            return self._index[provider_id]
        except KeyError:
            raise UnknownProviderError(provider_id) from None

    def attribute_weights(self, attribute: str) -> np.ndarray:
        """The capacity-aligned ``(N, 3)`` weight tensor for *attribute*."""
        cached = self._weights.get(attribute)
        if cached is not None:
            return cached
        weights = np.empty((len(self._ids_list), 3), dtype=np.float64)
        for row in range(len(self._ids_list)):
            self._fill_row_weights(weights, row, attribute)
        self._weights[attribute] = weights
        return weights

    def column(self, attribute: str, purpose: str) -> CompiledColumn:
        """The compiled column for ``(attribute, purpose)``, lazily built.

        Identical construction to
        :meth:`~repro.perf.compiled.CompiledPopulation.column`, read from
        the mutable stores; invalidated by structural mutations, kept
        across removals (tombstones never touch columns).
        """
        key = (attribute, purpose)
        cached = self._columns.get(key)
        if cached is not None:
            return cached
        weights = self.attribute_weights(attribute)
        providers_ranks = self._explicit_rows.get(key)
        if providers_ranks is not None:
            row_providers = np.array(providers_ranks[0], dtype=np.int64)
            row_ranks = np.array(providers_ranks[1], dtype=np.int64).reshape(-1, 3)
        else:
            row_providers = np.empty(0, dtype=np.int64)
            row_ranks = np.empty((0, 3), dtype=np.int64)
        row_weights = weights[row_providers]
        supplied = self._provided_array(attribute)
        if supplied is None or supplied.size == 0:
            implicit_providers = np.empty(0, dtype=np.int64)
        else:
            holders = self._explicit_providers.get(key)
            if holders:
                mask = np.isin(
                    supplied, np.fromiter(holders, dtype=np.int64), invert=True
                )
                implicit_providers = supplied[mask]
            else:
                implicit_providers = supplied
        implicit_weights = weights[implicit_providers]
        column = CompiledColumn(
            attribute=attribute,
            purpose=purpose,
            row_providers=row_providers,
            row_ranks=row_ranks,
            row_weights=row_weights,
            implicit_providers=implicit_providers,
            implicit_weights=implicit_weights,
        )
        self._columns[key] = column
        return column

    # ------------------------------------------------------------------
    # alive view
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; part of journal resume identity."""
        return self._epoch

    @property
    def capacity(self) -> int:
        """Total rows including tombstones."""
        return len(self._ids_list)

    @property
    def alive_count(self) -> int:
        """Rows not tombstoned."""
        return len(self._ids_list) - self._dead

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self._dead

    @property
    def dead_fraction(self) -> float:
        """Tombstoned fraction of capacity (0.0 for an empty store)."""
        capacity = len(self._ids_list)
        return (self._dead / capacity) if capacity else 0.0

    @property
    def alive_rows(self) -> np.ndarray:
        """Sorted capacity rows of the alive providers."""
        cached = self._alive_rows_cache
        if cached is None:
            cached = np.flatnonzero(self._alive)
            self._alive_rows_cache = cached
        return cached

    @property
    def alive_ids(self) -> tuple[Hashable, ...]:
        """Alive provider ids, in row order."""
        cached = self._alive_ids_cache
        if cached is None:
            cached = tuple(self._ids_list[int(row)] for row in self.alive_rows)
            self._alive_ids_cache = cached
        return cached

    @property
    def alive_segments(self) -> tuple[str | None, ...]:
        """Alive segment labels, in row order."""
        cached = self._alive_segments_cache
        if cached is None:
            cached = tuple(
                self._segments_list[int(row)] for row in self.alive_rows
            )
            self._alive_segments_cache = cached
        return cached

    @property
    def population(self) -> Population:
        """The alive providers as a :class:`Population` (cached per epoch)."""
        view = self._population_view
        if view is None:
            view = Population(
                (self._providers[int(row)] for row in self.alive_rows),
                self._sigma,
            )
            self._population_view = view
        return view

    @property
    def sensitivities(self) -> SensitivityModel:
        """The sensitivity model in force (override or alive view's own)."""
        if self._override_sensitivities is not None:
            return self._override_sensitivities
        return self._alive_models()[0]

    @property
    def default_model(self) -> DefaultModel:
        """The default model in force (override or alive view's own)."""
        if self._override_default is not None:
            return self._override_default
        return self._alive_models()[1]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def remove(self, provider_ids: Iterable[Hashable]) -> np.ndarray:
        """Tombstone the given alive providers; returns their sorted rows.

        The NumPy stores, materialised columns, and weight tensors are
        untouched — this is the operation that makes a departure round
        free of recompilation.
        """
        unique = list(dict.fromkeys(provider_ids))
        for pid in unique:
            if pid not in self._index:
                raise UnknownProviderError(pid)
        if not unique:
            return np.empty(0, dtype=np.int64)
        rows = [self._index.pop(pid) for pid in unique]
        row_array = np.array(sorted(rows), dtype=np.int64)
        self._alive[row_array] = False
        self._dead += len(rows)
        self._bump_epoch()
        return row_array

    def append(self, providers: Iterable[Provider]) -> np.ndarray:
        """Add new providers at the end of the row space; returns their rows.

        Rows stay non-decreasing in every store, preserving the ordering
        contract the kernels rely on.  Materialised columns are invalidated; cached weight tensors are
        grown in place with the new rows computed the same way a fresh
        compile would.
        """
        added = list(providers)
        seen: set[Hashable] = set()
        for provider in added:
            if not isinstance(provider, Provider):
                raise ValidationError(
                    f"population members must be Provider, got "
                    f"{type(provider).__name__}"
                )
            pid = provider.provider_id
            if pid in self._index or pid in seen:
                raise ValidationError(f"duplicate provider id {pid!r}")
            seen.add(pid)
        if not added:
            return np.empty(0, dtype=np.int64)
        new_rows: list[int] = []
        new_thresholds: list[float] = []
        for provider in added:
            row = len(self._ids_list)
            self._providers.append(provider)
            self._ids_list.append(provider.provider_id)
            self._segments_list.append(provider.segment)
            self._index[provider.provider_id] = row
            new_thresholds.append(self._threshold_of(provider))
            self._index_preferences(row, provider)
            new_rows.append(row)
        self._thresholds = np.concatenate(
            [self._thresholds, np.array(new_thresholds, dtype=np.float64)]
        )
        self._alive = np.concatenate(
            [self._alive, np.ones(len(new_rows), dtype=bool)]
        )
        for attribute, weights in list(self._weights.items()):
            grown = np.empty((len(self._ids_list), 3), dtype=np.float64)
            grown[: weights.shape[0]] = weights
            for row in new_rows:
                self._fill_row_weights(grown, row, attribute)
            self._weights[attribute] = grown
        self._invalidate_structural()
        return np.array(new_rows, dtype=np.int64)

    def update(self, providers: Iterable[Provider]) -> np.ndarray:
        """Replace alive providers (matched by id) in place; returns rows.

        The provider's old preference entries are stripped from the
        column stores and the new ones inserted at the row's sorted
        position — ``bisect_right`` keeps multiple entries of one
        provider in their preference order, matching a fresh compile's
        entry order exactly.
        """
        updates = list(providers)
        for provider in updates:
            if not isinstance(provider, Provider):
                raise ValidationError(
                    f"population members must be Provider, got "
                    f"{type(provider).__name__}"
                )
            if provider.provider_id not in self._index:
                raise UnknownProviderError(provider.provider_id)
        if not updates:
            return np.empty(0, dtype=np.int64)
        # Copy-on-write: previously assembled reports hold the old
        # threshold vector by reference and must keep their values.
        self._thresholds = self._thresholds.copy()
        changed: set[int] = set()
        for provider in updates:
            row = self._index[provider.provider_id]
            self._unindex_preferences(row, self._providers[row])
            self._providers[row] = provider
            self._segments_list[row] = provider.segment
            self._thresholds[row] = self._threshold_of(provider)
            self._insert_preferences(row, provider)
            for attribute, weights in self._weights.items():
                self._fill_row_weights(weights, row, attribute)
            changed.add(row)
        self._segments_tuple = None
        self._invalidate_structural()
        return np.array(sorted(changed), dtype=np.int64)

    def compact(self) -> None:
        """Recompile the alive view, dropping tombstones and renumbering rows.

        The one expensive path — triggered by :class:`MutableBatchEngine`
        when the tombstone fraction crosses its threshold, never on a
        plain removal.
        """
        survivors = self.population
        epoch = self._epoch
        self._adopt(
            CompiledPopulation(
                survivors,
                sensitivities=self._override_sensitivities,
                default_model=self._override_default,
            )
        )
        self._epoch = epoch
        self._bump_epoch()
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.compactions")
            obs.set_gauge("delta.tombstones", 0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _alive_models(self) -> tuple[SensitivityModel, DefaultModel]:
        if self._models_epoch != self._epoch:
            population = self.population
            self._sens_cache = population.sensitivity_model()
            self._default_cache = population.default_model()
            self._models_epoch = self._epoch
        return self._sens_cache, self._default_cache  # type: ignore[return-value]

    def _fill_row_weights(
        self, weights: np.ndarray, row: int, attribute: str
    ) -> None:
        """Compute one row of an attribute's weight tensor in place.

        Bitwise-identical to
        :meth:`~repro.perf.compiled.CompiledPopulation.attribute_weights`:
        without overrides the baked model's datum for a provider is
        exactly ``provider.sensitivity.get(attribute, neutral)`` and the
        attribute weight is ``Sigma``'s, so reading the provider object
        directly performs the same multiplications in the same order.
        """
        model = self._override_sensitivities
        if model is not None:
            datum = model.datum(self._ids_list[row], attribute)
            attribute_weight = model.attribute_weight(attribute)
        else:
            provider = self._providers[row]
            datum = provider.sensitivity.get(attribute, NEUTRAL_SENSITIVITY)
            attribute_weight = self._sigma.weight(attribute)
        base = attribute_weight * datum.value
        weights[row, 0] = base * datum.visibility
        weights[row, 1] = base * datum.granularity
        weights[row, 2] = base * datum.retention

    def _threshold_of(self, provider: Provider) -> float:
        if self._override_default is not None:
            return float(self._override_default.threshold(provider.provider_id))
        return float(provider.threshold)

    def _provided_array(self, attribute: str) -> np.ndarray | None:
        cached = self._provided_arrays.get(attribute)
        if cached is not None:
            return cached
        rows = self._provided.get(attribute)
        if rows is None:
            return None
        array = np.array(rows, dtype=np.int64)
        self._provided_arrays[attribute] = array
        return array

    def _index_preferences(self, row: int, provider: Provider) -> None:
        """Append a (maximal) row's preference entries to the stores."""
        preferences = provider.preferences
        for attribute in preferences.attributes_provided:
            self._provided.setdefault(attribute, []).append(row)
        for entry in preferences.entries:
            key = (entry.attribute, entry.purpose)
            rows_list, ranks_list = self._explicit_rows.setdefault(key, ([], []))
            rows_list.append(row)
            ranks_list.append(
                (
                    entry.tuple.visibility,
                    entry.tuple.granularity,
                    entry.tuple.retention,
                )
            )
            self._explicit_providers.setdefault(key, set()).add(row)

    def _unindex_preferences(self, row: int, old: Provider) -> None:
        """Strip a row's preference entries from the stores."""
        for key in {
            (entry.attribute, entry.purpose) for entry in old.preferences.entries
        }:
            rows_list, ranks_list = self._explicit_rows[key]
            keep = [i for i, r in enumerate(rows_list) if r != row]
            if len(keep) != len(rows_list):
                if keep:
                    self._explicit_rows[key] = (
                        [rows_list[i] for i in keep],
                        [ranks_list[i] for i in keep],
                    )
                else:
                    del self._explicit_rows[key]
            holders = self._explicit_providers.get(key)
            if holders is not None:
                holders.discard(row)
                if not holders:
                    del self._explicit_providers[key]
        for attribute in old.preferences.attributes_provided:
            rows_list = self._provided.get(attribute)
            if rows_list is not None:
                index = bisect.bisect_left(rows_list, row)
                if index < len(rows_list) and rows_list[index] == row:
                    del rows_list[index]
                if not rows_list:
                    del self._provided[attribute]

    def _insert_preferences(self, row: int, provider: Provider) -> None:
        """Insert a row's preference entries at their sorted positions."""
        preferences = provider.preferences
        for attribute in preferences.attributes_provided:
            bisect.insort(self._provided.setdefault(attribute, []), row)
        for entry in preferences.entries:
            key = (entry.attribute, entry.purpose)
            rows_list, ranks_list = self._explicit_rows.setdefault(key, ([], []))
            position = bisect.bisect_right(rows_list, row)
            rows_list.insert(position, row)
            ranks_list.insert(
                position,
                (
                    entry.tuple.visibility,
                    entry.tuple.granularity,
                    entry.tuple.retention,
                ),
            )
            self._explicit_providers.setdefault(key, set()).add(row)

    def _invalidate_structural(self) -> None:
        self._columns.clear()
        self._provided_arrays.clear()
        self._ids_tuple = None
        self._segments_tuple = None
        self._bump_epoch()

    def _bump_epoch(self) -> None:
        self._epoch += 1
        self._population_view = None
        self._alive_rows_cache = None
        self._alive_ids_cache = None
        self._alive_segments_cache = None




class MutableBatchEngine:
    """The churn-surviving batch engine.

    Mirrors the batch-engine surface (``evaluate`` / ``report`` /
    ``evaluate_arrays`` / ``evaluate_policies`` / ``certify`` /
    ``static_intervals`` / ``reference_engine`` / ``close``) and adds the
    mutation operations :meth:`remove`, :meth:`append`, and
    :meth:`update`.  One engine — one compilation — serves an entire
    dynamics, equilibrium, or widening run.
    """

    def __init__(
        self,
        population: Population,
        *,
        sensitivities: SensitivityModel | None = None,
        default_model: DefaultModel | None = None,
        implicit_zero: bool = True,
        max_cached_reports: int = 128,
        compact_threshold: float | None = COMPACT_THRESHOLD,
    ) -> None:
        if max_cached_reports < 1:
            raise ValidationError("max_cached_reports must be >= 1")
        if compact_threshold is not None:
            compact_threshold = float(compact_threshold)
            if not 0.0 < compact_threshold <= 1.0:
                raise ValidationError(
                    "compact_threshold must lie in (0, 1] or be None"
                )
        self._mutable = MutableCompiledPopulation(
            population,
            sensitivities=sensitivities,
            default_model=default_model,
        )
        self._implicit_zero = bool(implicit_zero)
        self._max_cached = int(max_cached_reports)
        self._compact_threshold = compact_threshold
        self._report_cache: dict[
            tuple[PolicyFingerprint, int], BatchReport
        ] = {}
        self._static_cache: dict[tuple[PolicyFingerprint, int], object] = {}
        self._inner = self._new_inner()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def compiled(self) -> MutableCompiledPopulation:
        """The mutable compiled population this engine evaluates."""
        return self._mutable

    @property
    def population(self) -> Population:
        """The alive providers."""
        return self._mutable.population

    @property
    def implicit_zero(self) -> bool:
        """Whether the implicit-zero completion is applied."""
        return self._implicit_zero

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; part of journal resume identity."""
        return self._mutable.epoch

    @property
    def tombstones(self) -> int:
        """Rows currently masked out pending compaction."""
        return self._mutable.dead_count

    @property
    def cached_policies(self) -> int:
        """Memoised evaluations served without recomputation."""
        if self._mutable.dead_count == 0:
            return self._inner.cached_policies
        return len(self._report_cache)

    def __repr__(self) -> str:
        return (
            f"MutableBatchEngine(alive={self._mutable.alive_count}, "
            f"tombstones={self._mutable.dead_count}, "
            f"epoch={self._mutable.epoch})"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release resources.  A no-op, like the batch engine's."""

    def __enter__(self) -> "MutableBatchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, policy: HousePolicy) -> BatchReport:
        """The :class:`BatchReport` for *policy* over the alive providers.

        Reports are always returned under the *requested* policy's name:
        the caches key on the name-independent fingerprint, so a
        widening run that saturates — consecutive rounds with equal
        entries but fresh ``@rN`` names — would otherwise resurface a
        stale round's name.
        """
        self._check_policy(policy)
        if self._mutable.dead_count == 0:
            return self._renamed(self._inner.evaluate(policy), policy.name)
        key = (policy_fingerprint(policy), self._mutable.epoch)
        cached = self._report_cache.get(key)
        obs = active_observer()
        if cached is not None:
            if obs is not None:
                obs.inc("delta.cache_hits")
            return self._renamed(cached, policy.name)
        violations, counts = self._inner.evaluate_arrays(policy)
        report = self._masked_report(policy.name, violations, counts)
        if obs is not None:
            obs.inc("delta.masked_evaluations")
        self._remember(key, report)
        return report

    def report(self, policy: HousePolicy) -> BatchReport:
        """Alias of :meth:`evaluate` (mirrors the other engines)."""
        return self.evaluate(policy)

    def evaluate_arrays(self, policy: HousePolicy) -> tuple[np.ndarray, np.ndarray]:
        """Raw alive-space ``(violations, counts)`` arrays for *policy*.

        Without tombstones the inner engine's arrays are returned as-is
        (they may be cached state — do not mutate); with tombstones the
        capacity arrays are restricted to the alive rows (fresh copies).
        """
        self._check_policy(policy)
        violations, counts = self._inner.evaluate_arrays(policy)
        if self._mutable.dead_count == 0:
            return violations, counts
        rows = self._mutable.alive_rows
        return violations[rows], counts[rows]

    def evaluate_policies(
        self, policies: Iterable[HousePolicy]
    ) -> list[BatchReport]:
        """Evaluate a policy sweep, reusing work across candidates."""
        return [self.evaluate(policy) for policy in policies]

    def certify(
        self,
        policy: HousePolicy,
        alpha: float,
        *,
        early_exit: bool = False,
        static: bool = False,
    ) -> PPDBCertificate:
        """Definition 3's alpha-PPDB certificate over the alive providers.

        Without tombstones this delegates wholesale.  With tombstones
        the static path derives the certificate from alive-view
        intervals and the evaluated path masks as :meth:`evaluate` does;
        ``early_exit`` falls back to the exact path — a dead row's
        finding counts must not spend the shared ``alpha x N`` budget.
        """
        self._check_policy(policy)
        if self._mutable.dead_count == 0:
            return self._inner.certify(
                policy, alpha, early_exit=early_exit, static=static
            )
        if static:
            if early_exit:
                raise ValidationError(
                    "static certification never evaluates, so early_exit "
                    "does not apply; pass one or the other"
                )
            alpha = check_probability(alpha, "alpha")
            if self._mutable.alive_count == 0:
                return self._trivial_certificate(policy, alpha)
            certificate = self.static_intervals(policy).certificate(alpha)
            obs = active_observer()
            if obs is not None:
                obs.inc("delta.static_certifications")
            return certificate
        alpha = check_probability(alpha, "alpha")
        n = self._mutable.alive_count
        if n == 0:
            return self._trivial_certificate(policy, alpha)
        report = self.evaluate(policy)
        violated = report.violated_ids()
        p_w = len(violated) / n
        return PPDBCertificate(
            alpha=alpha,
            violation_probability=p_w,
            satisfied=p_w <= alpha,
            n_providers=n,
            violated_providers=violated,
            policy_name=policy.name,
        )

    def static_intervals(self, policy: HousePolicy):
        """The lint layer's severity intervals over the alive providers.

        Serves the inner engine's own (mutation-aware) cache when no
        tombstones exist; otherwise computes over the alive view and
        caches per ``(fingerprint, epoch)``.
        """
        self._check_policy(policy)
        if self._mutable.dead_count == 0:
            return self._inner.static_intervals(policy)
        key = (policy_fingerprint(policy), self._mutable.epoch)
        cached = self._static_cache.get(key)
        if cached is not None:
            return cached
        from ..lint.intervals import interval_analysis

        intervals = interval_analysis(
            policy,
            self._mutable.population,
            sensitivities=self._mutable.sensitivities,
            default_model=self._mutable.default_model,
            implicit_zero=self._implicit_zero,
            weight_bounds="provider",
        )
        if len(self._static_cache) >= self._max_cached:
            del self._static_cache[next(iter(self._static_cache))]
        self._static_cache[key] = intervals
        return intervals

    def reference_engine(self, policy: HousePolicy) -> ViolationEngine:
        """The reference oracle for *policy* over the alive providers."""
        return ViolationEngine(
            policy,
            self._mutable.population,
            sensitivities=self._mutable.sensitivities,
            default_model=self._mutable.default_model,
            implicit_zero=self._implicit_zero,
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def remove(self, provider_ids: Iterable[Hashable]) -> None:
        """Tombstone providers — no recompilation.

        The inner engine keeps evaluating the full capacity arrays
        (per-provider sums are independent, so dead rows cannot perturb
        alive ones) and this engine masks them out at assembly.
        Compaction runs only when the tombstone fraction crosses the
        engine's threshold.
        """
        ids = tuple(provider_ids)
        if not ids:
            return
        rows = self._mutable.remove(ids)
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.removals", int(rows.size))
            obs.inc("delta.reused", self._mutable.alive_count)
            obs.set_gauge("delta.tombstones", self._mutable.dead_count)
            obs.set_gauge("delta.epoch", self._mutable.epoch)
        threshold = self._compact_threshold
        if threshold is not None and self._mutable.dead_fraction > threshold:
            self._compact()

    def append(self, providers: Iterable[Provider]) -> None:
        """Add providers; re-scores only the new rows."""
        added = tuple(providers)
        if not added:
            return
        rows = self._mutable.append(added)
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.appends", int(rows.size))
        self._after_structural_mutation(rows)

    def update(self, providers: Iterable[Provider]) -> None:
        """Replace providers in place (matched by id); re-scores only
        the edited rows."""
        updates = tuple(providers)
        if not updates:
            return
        rows = self._mutable.update(updates)
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.updates", int(rows.size))
        self._after_structural_mutation(rows)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _new_inner(self) -> BatchViolationEngine:
        return BatchViolationEngine(
            self._mutable,
            implicit_zero=self._implicit_zero,
            max_cached_reports=self._max_cached,
        )

    def _after_structural_mutation(self, rows: np.ndarray) -> None:
        rescored, reused = self._inner.rescore_rows(rows)
        obs = active_observer()
        if obs is not None:
            obs.inc("delta.rescored", rescored)
            obs.inc("delta.reused", reused)
            obs.set_gauge("delta.tombstones", self._mutable.dead_count)
            obs.set_gauge("delta.epoch", self._mutable.epoch)

    def _compact(self) -> None:
        self._mutable.compact()
        # Compaction renumbers the rows, so the inner engine's cached
        # evaluations no longer line up with the store: start afresh.
        self._inner = self._new_inner()
        obs = active_observer()
        if obs is not None:
            obs.set_gauge("delta.epoch", self._mutable.epoch)

    @staticmethod
    def _renamed(report: BatchReport, policy_name: str) -> BatchReport:
        if report.policy_name == policy_name:
            return report
        return dataclasses.replace(report, policy_name=policy_name)

    def _masked_report(
        self, policy_name: str, violations: np.ndarray, counts: np.ndarray
    ) -> BatchReport:
        rows = self._mutable.alive_rows
        return assemble_report(
            policy_name,
            violations[rows],
            counts[rows],
            ids=self._mutable.alive_ids,
            segments=self._mutable.alive_segments,
            thresholds=self._mutable.thresholds[rows],
            strict=self._mutable.strict,
        )

    def _trivial_certificate(
        self, policy: HousePolicy, alpha: float
    ) -> PPDBCertificate:
        return PPDBCertificate(
            alpha=alpha,
            violation_probability=0.0,
            satisfied=True,
            n_providers=0,
            violated_providers=(),
            policy_name=policy.name,
        )

    def _remember(
        self, key: tuple[PolicyFingerprint, int], report: BatchReport
    ) -> None:
        if key not in self._report_cache and len(self._report_cache) >= self._max_cached:
            del self._report_cache[next(iter(self._report_cache))]
        self._report_cache[key] = report

    def _check_policy(self, policy: HousePolicy) -> None:
        if not isinstance(policy, HousePolicy):
            raise ValidationError(
                f"policy must be a HousePolicy, got {type(policy).__name__}"
            )
