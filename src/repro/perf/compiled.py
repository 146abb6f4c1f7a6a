"""One-time compilation of a population into dense NumPy arrays.

The reference :class:`~repro.core.engine.ViolationEngine` walks Python
objects — preference entries, sensitivity records, threshold lookups — for
every provider on every evaluation.  A :class:`CompiledPopulation`
performs that walk exactly once and stores the result as flat arrays laid
out for the vectorized kernels in :mod:`repro.perf.batch`:

* provider ids in population order, with an id -> row-index map;
* the default-threshold vector ``v`` (``inf`` for "never defaults") and
  the :class:`~repro.core.default.DefaultModel`'s strictness flag;
* per **column** — one column per ``(attribute, purpose)`` pair — the
  explicit preference rows (provider index, ``(V, G, R)`` ranks) and the
  providers subject to the implicit-zero completion, each paired with the
  precomputed severity weights ``Sigma^a x s_i^a x s_i^a[dim]`` so the
  inner loop of Eq. 14 reduces to one fused multiply-add.

The compilation is tied to a population *and* the sensitivity/default
models in effect (like the reference engine, overrides are accepted and
default to the population's own models).  It is policy-independent:
columns are materialised lazily for whatever ``(attribute, purpose)``
pairs the evaluated policies mention, then cached, so a widening sweep
touching the same columns repeatedly pays the gather cost once.

A compilation also takes population churn in place, which is what lets
one :class:`~repro.perf.batch.BatchViolationEngine` serve a whole
dynamics or widening-game run: :meth:`CompiledPopulation.remove`
tombstones rows in an alive mask (no array is rebuilt and no row moves),
:meth:`~CompiledPopulation.append` adds rows at the end, and
:meth:`~CompiledPopulation.update` splices a provider's new entries into
its row.  Rows keep their order, so every per-provider sum accumulates
exactly as it would in a fresh compile of the providers still present.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from time import perf_counter
from typing import Hashable, Iterable

import numpy as np

from ..core.default import DefaultModel
from ..core.population import Population, Provider
from ..core.sensitivity import NEUTRAL_SENSITIVITY, SensitivityModel
from ..exceptions import UnknownProviderError, ValidationError
from ..obs import active_observer

#: The ordered-dimension axis order used by every rank/weight array:
#: column 0 = visibility, 1 = granularity, 2 = retention (the paper's
#: ``{V, G, R}``).
RANK_AXES = ("visibility", "granularity", "retention")


@dataclass(frozen=True)
class CompiledColumn:
    """The dense form of one ``(attribute, purpose)`` column.

    ``row_providers``/``row_ranks``/``row_weights`` describe the explicit
    preference entries whose ``(attribute, purpose)`` matches the column —
    a provider may own several rows (the model allows multiple tuples per
    pair).  ``implicit_providers``/``implicit_weights`` are the providers
    that supplied the attribute but expressed no preference for the
    purpose: under the implicit-zero completion of Section 5 they hold the
    tuple ``<pr, 0, 0, 0>`` for this column.
    """

    attribute: str
    purpose: str
    row_providers: np.ndarray  # (R,) int64 — provider row index per entry
    row_ranks: np.ndarray  # (R, 3) int64 — (V, G, R) ranks per entry
    row_weights: np.ndarray  # (R, 3) float64 — per-dimension weights
    implicit_providers: np.ndarray  # (I,) int64 — unique provider rows
    implicit_weights: np.ndarray  # (I, 3) float64

    @property
    def n_rows(self) -> int:
        """Number of explicit preference rows in this column."""
        return int(self.row_providers.shape[0])

    @property
    def n_implicit(self) -> int:
        """Number of providers completed with an implicit zero tuple."""
        return int(self.implicit_providers.shape[0])


class CompiledPopulation:
    """A :class:`~repro.core.population.Population` flattened for batch use.

    The arrays span every **row**, tombstoned ones included:
    ``len(compiled)``, :attr:`ids`, :attr:`thresholds` and every column
    are row-aligned.  The providers still present are the rows of
    :attr:`alive_rows`; :attr:`population` is them as a
    :class:`~repro.core.population.Population`.

    Parameters
    ----------
    population:
        The providers to compile.
    sensitivities, default_model:
        Optional overrides, defaulting to the population's own models —
        the same contract as :class:`~repro.core.engine.ViolationEngine`.
        Without overrides, thresholds and weights are read from the
        :class:`~repro.core.population.Provider` objects, the same
        arithmetic the population's own models perform, and those models
        are built only when :attr:`sensitivities` or
        :attr:`default_model` is read.
    """

    __slots__ = (
        "_population",
        "_sigma",
        "_sensitivity_override",
        "_default_override",
        "_sensitivities",
        "_default_model",
        "_providers",
        "_ids",
        "_index",
        "_segments",
        "_thresholds",
        "_strict",
        "_alive",
        "_dead",
        "_alive_view",
        "_explicit_rows",
        "_explicit_providers",
        "_provided",
        "_weights_by_attribute",
        "_columns",
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
        obs = active_observer()
        start = perf_counter() if obs is not None else 0.0
        self._population: Population | None = population
        self._sigma = population.attribute_sensitivities
        self._sensitivity_override = sensitivities
        self._default_override = default_model
        self._sensitivities = sensitivities
        self._default_model = default_model
        providers = population.providers
        self._providers: tuple[Provider, ...] = providers
        ids = population.ids()
        self._ids: tuple[Hashable, ...] = ids
        self._index: dict[Hashable, int] = {pid: i for i, pid in enumerate(ids)}
        self._segments = tuple(p.segment for p in providers)
        self._thresholds = np.array(
            self._threshold_values(range(len(ids))), dtype=np.float64
        )
        self._strict = default_model.strict if default_model is not None else True
        self._alive = np.ones(len(ids), dtype=bool)
        self._dead = 0
        self._alive_view: tuple | None = None

        # Group every explicit preference entry by (attribute, purpose):
        # column key -> ([provider row], [(V, G, R)]).  Also track which
        # providers supplied which attributes (the implicit-zero rule only
        # applies to supplied attributes) and which providers already hold
        # an explicit entry for a column (they are never completed).
        # Rows are visited in order, so every list stays sorted.
        explicit_rows: dict[tuple[str, str], tuple[list[int], list[tuple[int, int, int]]]] = {}
        explicit_providers: dict[tuple[str, str], set[int]] = {}
        provided: dict[str, list[int]] = {}
        for row, provider in enumerate(providers):
            preferences = provider.preferences
            for attribute in preferences.attributes_provided:
                provided.setdefault(attribute, []).append(row)
            for entry in preferences.entries:
                key = (entry.attribute, entry.purpose)
                rows, ranks = explicit_rows.setdefault(key, ([], []))
                rows.append(row)
                ranks.append(
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
        self._weights_by_attribute: dict[str, np.ndarray] = {}
        self._columns: dict[tuple[str, str], CompiledColumn] = {}
        if obs is not None:
            obs.inc("perf.compilations")
            obs.set_gauge("perf.compiled_providers", len(ids))
            obs.observe("perf.compile_seconds", perf_counter() - start)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def population(self) -> Population:
        """The providers still present, in row order.

        The compiled population itself until the first mutation; after
        one, rebuilt on first read.
        """
        if self._population is None:
            providers = self._providers
            self._population = Population(
                (providers[row] for row in self.alive_rows.tolist()), self._sigma
            )
        return self._population

    @property
    def sensitivities(self) -> SensitivityModel:
        """The sensitivity model in force: the override, or the present
        providers' own (built on first read)."""
        if self._sensitivities is None:
            self._sensitivities = self.population.sensitivity_model()
        return self._sensitivities

    @property
    def default_model(self) -> DefaultModel:
        """The default model in force: the override, or the present
        providers' own (built on first read)."""
        if self._default_model is None:
            self._default_model = self.population.default_model()
        return self._default_model

    @property
    def ids(self) -> tuple[Hashable, ...]:
        """Provider ids, one per row (the population order)."""
        return self._ids

    @property
    def segments(self) -> tuple[str | None, ...]:
        """Per-provider segment labels, in row order."""
        return self._segments

    @property
    def thresholds(self) -> np.ndarray:
        """The threshold vector ``v`` (row-aligned, ``inf`` = never)."""
        return self._thresholds

    @property
    def strict(self) -> bool:
        """Definition 4's strict-inequality flag."""
        return self._strict

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"CompiledPopulation({self.alive_count} providers, "
            f"{self._dead} tombstoned, {len(self._explicit_rows)} explicit columns)"
        )

    def row_of(self, provider_id: Hashable) -> int:
        """The array row index of *provider_id*.

        Raises
        ------
        UnknownProviderError
            If the provider is not present.
        """
        try:
            return self._index[provider_id]
        except KeyError:
            raise UnknownProviderError(provider_id) from None

    # ------------------------------------------------------------------
    # the providers still present
    # ------------------------------------------------------------------

    @property
    def dead_count(self) -> int:
        """Tombstoned rows (removed providers awaiting compaction)."""
        return self._dead

    @property
    def alive_count(self) -> int:
        """Providers still present."""
        return len(self._ids) - self._dead

    @property
    def alive_rows(self) -> np.ndarray:
        """Sorted rows of the providers still present."""
        return self._alive_rows_ids_segments()[0]

    @property
    def alive_ids(self) -> tuple[Hashable, ...]:
        """Ids of the providers still present, in row order."""
        return self._alive_rows_ids_segments()[1]

    @property
    def alive_segments(self) -> tuple[str | None, ...]:
        """Segment labels of the providers still present, in row order."""
        return self._alive_rows_ids_segments()[2]

    def _alive_rows_ids_segments(self) -> tuple:
        view = self._alive_view
        if view is None:
            rows = np.flatnonzero(self._alive)
            if self._dead:
                listed = rows.tolist()
                ids, segments = self._ids, self._segments
                view = (
                    rows,
                    tuple(ids[row] for row in listed),
                    tuple(segments[row] for row in listed),
                )
            else:
                view = (rows, self._ids, self._segments)
            self._alive_view = view
        return view

    # ------------------------------------------------------------------
    # compiled tensors
    # ------------------------------------------------------------------

    def attribute_weights(self, attribute: str) -> np.ndarray:
        """The ``(N, 3)`` weight tensor for one attribute.

        ``weights[i, d] = Sigma^a x s_i^a x s_i^a[dim_d]`` with ``dim_d``
        running over :data:`RANK_AXES` — exactly the factor multiplying
        Eq. 12's exceedance in Eq. 14.  Computed on first request, cached.
        """
        cached = self._weights_by_attribute.get(attribute)
        if cached is None:
            cached = self._row_weights(range(len(self._ids)), attribute)
            self._weights_by_attribute[attribute] = cached
        return cached

    def column(self, attribute: str, purpose: str) -> CompiledColumn:
        """The compiled column for ``(attribute, purpose)``.

        Materialised lazily and cached — the set of relevant columns is
        driven by the policies being evaluated, not by the population.
        Removals keep it; appends and updates drop it.
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
        supplied = np.array(self._provided.get(attribute, ()), dtype=np.int64)
        holders = self._explicit_providers.get(key)
        if holders and supplied.size:
            mask = np.isin(supplied, np.fromiter(holders, dtype=np.int64), invert=True)
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
    # mutation
    # ------------------------------------------------------------------

    def remove(self, provider_ids: Iterable[Hashable]) -> np.ndarray:
        """Tombstone the given present providers; returns their sorted rows.

        Only the alive mask changes: arrays, columns and weight tensors
        keep every row, so a departure round recompiles nothing.  An
        unknown or already removed id raises before anything changes;
        a repeated id counts once.
        """
        unique = list(dict.fromkeys(provider_ids))
        for pid in unique:
            if pid not in self._index:
                raise UnknownProviderError(pid)
        if not unique:
            return np.empty(0, dtype=np.int64)
        rows = np.array(sorted(self._index.pop(pid) for pid in unique), dtype=np.int64)
        self._alive[rows] = False
        self._dead += len(unique)
        self._mutated()
        return rows

    def append(self, providers: Iterable[Provider]) -> np.ndarray:
        """Add new providers after the last row; returns their rows.

        Cached weight tensors grow by the new rows, computed as a fresh
        compile would; materialised columns are dropped.
        """
        added = list(providers)
        seen: set[Hashable] = set()
        for provider in added:
            _check_provider(provider)
            pid = provider.provider_id
            if pid in self._index or pid in seen:
                raise ValidationError(f"duplicate provider id {pid!r}")
            seen.add(pid)
        if not added:
            return np.empty(0, dtype=np.int64)
        start = len(self._ids)
        self._providers = (*self._providers, *added)
        self._ids = (*self._ids, *(p.provider_id for p in added))
        self._segments = (*self._segments, *(p.segment for p in added))
        rows = np.arange(start, len(self._ids), dtype=np.int64)
        for row, provider in enumerate(added, start):
            self._index[provider.provider_id] = row
            self._insert_preferences(row, provider)
        self._thresholds = np.concatenate(
            [self._thresholds, np.array(self._threshold_values(rows), dtype=np.float64)]
        )
        self._alive = np.concatenate([self._alive, np.ones(len(added), dtype=bool)])
        for attribute, weights in self._weights_by_attribute.items():
            self._weights_by_attribute[attribute] = np.concatenate(
                [weights, self._row_weights(rows, attribute)]
            )
        self._columns.clear()
        self._mutated()
        return rows

    def update(self, providers: Iterable[Provider]) -> np.ndarray:
        """Replace present providers (matched by id) in place; returns
        their sorted rows.

        A provider's old entries leave the column stores and the new ones
        go in at the row's sorted position — ``bisect_right`` keeps one
        provider's entries in their preference order, as a fresh compile
        does.  The threshold vector is copied before it is patched, so
        reports assembled earlier keep their values.
        """
        updates = list(providers)
        for provider in updates:
            _check_provider(provider)
            if provider.provider_id not in self._index:
                raise UnknownProviderError(provider.provider_id)
        if not updates:
            return np.empty(0, dtype=np.int64)
        present = list(self._providers)
        segments = list(self._segments)
        changed: set[int] = set()
        for provider in updates:
            row = self._index[provider.provider_id]
            self._unindex_preferences(row, present[row])
            present[row] = provider
            segments[row] = provider.segment
            self._insert_preferences(row, provider)
            changed.add(row)
        self._providers = tuple(present)
        self._segments = tuple(segments)
        rows = np.array(sorted(changed), dtype=np.int64)
        self._thresholds = self._thresholds.copy()
        self._thresholds[rows] = self._threshold_values(rows)
        for attribute, weights in self._weights_by_attribute.items():
            weights[rows] = self._row_weights(rows, attribute)
        self._columns.clear()
        self._mutated()
        return rows

    def compacted(self) -> "CompiledPopulation":
        """A fresh compilation of the present providers, same overrides."""
        return CompiledPopulation(
            self.population,
            sensitivities=self._sensitivity_override,
            default_model=self._default_override,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _threshold_values(self, rows: Iterable[int]) -> list[float]:
        model = self._default_override
        if model is not None:
            return [model.threshold(self._ids[row]) for row in rows]
        return [self._providers[row].threshold for row in rows]

    def _row_weights(self, rows: Iterable[int], attribute: str) -> np.ndarray:
        """The ``(len(rows), 3)`` weights of one attribute for *rows*.

        Without an override, a provider's datum is read from its own
        record, which is what the population's sensitivity model returns
        for it, so the multiplications are the same, in the same order.
        """
        model = self._sensitivity_override
        if model is None:
            attribute_weight = self._sigma.weight(attribute)
            providers = self._providers
            data = [
                providers[row].sensitivity.get(attribute, NEUTRAL_SENSITIVITY)
                for row in rows
            ]
        else:
            attribute_weight = model.attribute_weight(attribute)
            ids = self._ids
            data = [model.datum(ids[row], attribute) for row in rows]
        flat: list[float] = []
        for datum in data:
            base = attribute_weight * datum.value
            flat += (
                base * datum.visibility,
                base * datum.granularity,
                base * datum.retention,
            )
        return np.array(flat, dtype=np.float64).reshape(-1, 3)

    def _insert_preferences(self, row: int, provider: Provider) -> None:
        """Insert a row's preference entries at their sorted positions."""
        preferences = provider.preferences
        for attribute in preferences.attributes_provided:
            bisect.insort(self._provided.setdefault(attribute, []), row)
        for entry in preferences.entries:
            key = (entry.attribute, entry.purpose)
            rows, ranks = self._explicit_rows.setdefault(key, ([], []))
            position = bisect.bisect_right(rows, row)
            rows.insert(position, row)
            ranks.insert(
                position,
                (
                    entry.tuple.visibility,
                    entry.tuple.granularity,
                    entry.tuple.retention,
                ),
            )
            self._explicit_providers.setdefault(key, set()).add(row)

    def _unindex_preferences(self, row: int, old: Provider) -> None:
        """Strip a row's preference entries from the stores."""
        for key in {
            (entry.attribute, entry.purpose) for entry in old.preferences.entries
        }:
            rows, ranks = self._explicit_rows[key]
            keep = [i for i, r in enumerate(rows) if r != row]
            if keep:
                self._explicit_rows[key] = ([rows[i] for i in keep], [ranks[i] for i in keep])
            else:
                del self._explicit_rows[key]
            holders = self._explicit_providers[key]
            holders.discard(row)
            if not holders:
                del self._explicit_providers[key]
        for attribute in old.preferences.attributes_provided:
            rows = self._provided[attribute]
            del rows[bisect.bisect_left(rows, row)]
            if not rows:
                del self._provided[attribute]

    def _mutated(self) -> None:
        """Drop what was derived from the providers present before."""
        self._population = None
        self._sensitivities = self._sensitivity_override
        self._default_model = self._default_override
        self._alive_view = None


def _check_provider(provider: object) -> None:
    if not isinstance(provider, Provider):
        raise ValidationError(
            f"population members must be Provider, got {type(provider).__name__}"
        )
