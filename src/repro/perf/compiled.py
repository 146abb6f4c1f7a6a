"""One-time compilation of a population into dense NumPy arrays.

The reference :class:`~repro.core.engine.ViolationEngine` walks Python
objects — preference entries, sensitivity records, threshold lookups — for
every provider on every evaluation.  A :class:`CompiledPopulation`
performs that walk exactly once and stores the result as flat arrays laid
out for the vectorized kernels in :mod:`repro.perf.batch`:

* provider ids in population order, with an id -> row-index map;
* the default-threshold vector ``v`` (``inf`` for "never defaults");
* one **entry store**: every explicit preference entry's provider row and
  ``(V, G, R)`` ranks, grouped by **column** — one column per
  ``(attribute, purpose)`` pair — with each column's rows in row order
  and, within a row, in entry order;
* per column, the explicit rows as slices of that store and the
  providers subject to the implicit-zero completion, each paired with the
  precomputed severity weights ``Sigma^a x s_i^a x s_i^a[dim]`` so the
  inner loop of Eq. 14 reduces to one fused multiply-add.

The compilation is tied to a population and reads thresholds and
sensitivity records from its providers, the records the population's own
models hold.  It is policy-independent: columns are materialised lazily
for whatever ``(attribute, purpose)`` pairs the evaluated policies
mention, then cached, so a widening sweep touching the same columns
repeatedly pays the gather cost once.

A compilation also takes departures in place, which is what lets one
:class:`~repro.perf.batch.BatchViolationEngine` serve a whole dynamics
or widening-game run: :meth:`CompiledPopulation.remove` tombstones rows
in an alive mask (no array is rebuilt and no row moves).  Survivors keep
their rows, so every per-provider sum accumulates exactly as it would in
a fresh compile of the providers still present.
:meth:`CompiledPopulation.compacted` cuts the survivors' store out of
the arrays by that mask, walking no provider, and equals such a fresh
compile array for array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from time import perf_counter
from typing import Hashable, Iterable, Sequence

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

#: A sensitivity record's ``(s, s[V], s[G], s[R])``, the Eq. 11 order.
_DATUM_FIELDS = attrgetter("value", *RANK_AXES)


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

    Thresholds and weights are read from the
    :class:`~repro.core.population.Provider` objects, the same arithmetic
    the population's own models perform; :meth:`models_for` builds those
    models for a few providers when a caller needs them.
    """

    __slots__ = (
        "_population",
        "_sigma",
        "_providers",
        "_ids",
        "_index",
        "_segments",
        "_thresholds",
        "_alive",
        "_dead",
        "_alive_view",
        "_entry_rows",
        "_entry_ranks",
        "_spans",
        "_provided",
        "_weights_by_attribute",
        "_columns",
    )

    def __init__(self, population: Population) -> None:
        if not isinstance(population, Population):
            raise ValidationError(
                f"population must be a Population, got {type(population).__name__}"
            )
        start = perf_counter() if active_observer() is not None else 0.0
        self._sigma = population.attribute_sensitivities
        providers = population.providers
        ids = population.ids()

        # One pass over the entries, attribute by attribute: the rows that
        # supplied each attribute (only they get implicit zeros) and a table
        # of its distinct tuple objects, so an entry costs one lookup by
        # identity (the entries hold their tuples, so no id is reused) and
        # a tuple's column and ranks are read once.
        groups: dict[str, tuple[list[int], dict[int, int]]] = {}
        columns: dict[tuple[str, str], int] = {}
        distinct: list[int] = []  # column code, V, G, R per distinct tuple
        codes: list[int] = []
        counts: list[int] = []
        for row, provider in enumerate(providers):
            preferences = provider.preferences
            for attribute in preferences.attributes_provided:
                group = groups.get(attribute)
                if group is None:
                    group = groups[attribute] = ([], {})
                supplied, table = group
                supplied.append(row)
                for entry in preferences.for_attribute(attribute):
                    t = entry.tuple
                    code = table.get(id(t))
                    if code is None:
                        code = table[id(t)] = len(distinct) // 4
                        key = (attribute, t.purpose)
                        column = columns.setdefault(key, len(columns))
                        distinct += (column, t.visibility, t.granularity, t.retention)
                    codes.append(code)
            counts.append(len(preferences))

        # The entry store: one stable sort by column keeps each column's
        # rows in row order and, within a row, in entry order.
        tuples = np.array(distinct, dtype=np.int64).reshape(-1, 4)
        entry_tuples = np.array(codes, dtype=np.intp)
        entry_columns = tuples[entry_tuples, 0]
        order = np.argsort(entry_columns, kind="stable")
        bounds = np.searchsorted(entry_columns[order], np.arange(len(columns) + 1))
        self._set_store(
            population,
            providers,
            ids,
            tuple(p.segment for p in providers),
            np.array([p.threshold for p in providers], dtype=np.float64),
            np.repeat(np.arange(len(counts), dtype=np.int64), counts)[order],
            tuples[entry_tuples[order], 1:],
            {key: (int(bounds[i]), int(bounds[i + 1])) for key, i in columns.items()},
            {
                attribute: np.array(supplied, dtype=np.int64)
                for attribute, (supplied, _) in groups.items()
            },
            {},
            start,
        )

    def _set_store(
        self,
        population: Population | None,
        providers: tuple[Provider, ...],
        ids: tuple[Hashable, ...],
        segments: tuple[str | None, ...],
        thresholds: np.ndarray,
        entry_rows: np.ndarray,
        entry_ranks: np.ndarray,
        spans: dict[tuple[str, str], tuple[int, int]],
        provided: dict[str, np.ndarray],
        weights_by_attribute: dict[str, np.ndarray],
        start: float,
    ) -> None:
        """Install a store, every row alive; counts one compilation.

        *spans* maps a column to its ``[start, stop)`` slice of the entry
        store; *provided* an attribute to the rows that supplied it.
        """
        self._population = population
        self._providers = providers
        self._ids = ids
        self._index = {pid: i for i, pid in enumerate(ids)}
        self._segments = segments
        self._thresholds = thresholds
        self._alive = np.ones(len(ids), dtype=bool)
        self._dead = 0
        self._alive_view: tuple | None = None
        self._entry_rows = entry_rows
        self._entry_ranks = entry_ranks
        self._spans = spans
        self._provided = provided
        self._weights_by_attribute = weights_by_attribute
        self._columns: dict[tuple[str, str], CompiledColumn] = {}
        obs = active_observer()
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

        The compiled population itself until the first removal; after
        one, rebuilt on first read.
        """
        if self._population is None:
            providers = self._providers
            self._population = Population(
                (providers[row] for row in self.alive_rows.tolist()), self._sigma
            )
        return self._population

    def models_for(
        self, providers: Sequence[Provider]
    ) -> tuple[SensitivityModel, DefaultModel]:
        """The sensitivity and default models of *providers*.

        Built from *providers*' own records, which is what the present
        population's models hold for them.  A caller that needs the
        models for a few rows passes just their providers and pays for
        those alone.
        """
        return (
            SensitivityModel.from_providers(self._sigma, providers),
            DefaultModel.from_providers(providers),
        )

    @property
    def ids(self) -> tuple[Hashable, ...]:
        """Provider ids, one per row (the population order)."""
        return self._ids

    def provider(self, row: int) -> Provider:
        """The :class:`Provider` compiled at *row* (tombstoned or not)."""
        return self._providers[row]

    @property
    def segments(self) -> tuple[str | None, ...]:
        """Per-provider segment labels, in row order."""
        return self._segments

    @property
    def thresholds(self) -> np.ndarray:
        """The threshold vector ``v`` (row-aligned, ``inf`` = never)."""
        return self._thresholds

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"CompiledPopulation({self.alive_count} providers, "
            f"{self._dead} tombstoned, {len(self._spans)} explicit columns)"
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
                    tuple([ids[row] for row in listed]),
                    tuple([segments[row] for row in listed]),
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

        A provider's datum is read from its own record, which is what the
        population's sensitivity model returns for it.  The records'
        fields are multiplied in NumPy in the order
        ``(Sigma^a x s_i^a) x s_i^a[dim]``, the order of Eq. 14.
        """
        cached = self._weights_by_attribute.get(attribute)
        if cached is not None:
            return cached
        data = [
            provider.sensitivity.get(attribute, NEUTRAL_SENSITIVITY)
            for provider in self._providers
        ]
        records = np.fromiter(
            chain.from_iterable(map(_DATUM_FIELDS, data)), np.float64, 4 * len(data)
        ).reshape(-1, 4)
        cached = (self._sigma.weight(attribute) * records[:, :1]) * records[:, 1:]
        self._weights_by_attribute[attribute] = cached
        return cached

    def column(self, attribute: str, purpose: str) -> CompiledColumn:
        """The compiled column for ``(attribute, purpose)``.

        Materialised lazily and cached — the set of relevant columns is
        driven by the policies being evaluated, not by the population.
        Its explicit rows and ranks are slices of the entry store.
        Removals keep it.
        """
        key = (attribute, purpose)
        cached = self._columns.get(key)
        if cached is not None:
            return cached
        weights = self.attribute_weights(attribute)
        start, stop = self._spans.get(key, (0, 0))
        row_providers = self._entry_rows[start:stop]
        row_ranks = self._entry_ranks[start:stop]
        row_weights = weights[row_providers]
        supplied = np.asarray(self._provided.get(attribute, ()), dtype=np.int64)
        if row_providers.size and supplied.size:
            # Providers holding an explicit entry for the column are never
            # completed.
            implicit_providers = supplied[
                np.isin(supplied, row_providers, invert=True)
            ]
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
        # Drop what was derived from the providers present before.
        self._population = None
        self._alive_view = None
        return rows

    def compacted(self) -> "CompiledPopulation":
        """The present providers as a new compilation.

        Cut from this store by the alive mask, walking no provider (the
        :class:`Population` is built on first read).  Survivors keep their
        order and every entry its place in its column, so every array
        equals a fresh compile's, bit for bit.  Counts one compilation.
        """
        start = perf_counter() if active_observer() is not None else 0.0
        alive = self._alive
        rows, ids, segments = self._alive_rows_ids_segments()
        renumber = np.cumsum(alive, dtype=np.int64) - 1
        keep = alive[self._entry_rows]
        cut = np.concatenate(([0], np.cumsum(keep))).tolist()
        providers = self._providers
        compacted = CompiledPopulation.__new__(CompiledPopulation)
        compacted._sigma = self._sigma
        compacted._set_store(
            None,
            tuple([providers[row] for row in rows.tolist()]),
            ids,
            segments,
            self._thresholds[rows],
            renumber[self._entry_rows[keep]],
            self._entry_ranks[keep],
            {
                key: (cut[begin], cut[end])
                for key, (begin, end) in self._spans.items()
                if cut[begin] < cut[end]
            },
            {
                attribute: renumber[supplied[alive[supplied]]]
                for attribute, supplied in self._provided.items()
            },
            {
                attribute: weights[rows]
                for attribute, weights in self._weights_by_attribute.items()
            },
            start,
        )
        return compacted
