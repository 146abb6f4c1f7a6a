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
* per attribute, the sensitivity records ``(s, s[V], s[G], s[R])``;
* per column, the explicit rows as slices of that store and the
  providers subject to the implicit-zero completion, each paired with the
  precomputed severity weights ``Sigma^a x s_i^a x s_i^a[dim]`` so the
  inner loop of Eq. 14 reduces to one fused multiply-add.

Everything but ``Sigma`` and the columns is a read-only **store** built
by one walk over the providers (:meth:`_Store.walk`); a store takes
rows of itself by one cut (:meth:`_Store.cut`), which equals a walk of
those rows' providers array for array.  A population from
:func:`~repro.simulation.population.generate_population`, and its
subsets, carry the store that generation walked, so their compiles cut
it instead of walking the providers again; any other population is
walked.

A compilation is policy-independent: columns are materialised lazily
for whatever ``(attribute, purpose)`` pairs the evaluated policies
mention, then cached, so a widening sweep touching the same columns
repeatedly pays the gather cost once.

A compilation also takes departures in place, which is what lets one
:class:`~repro.perf.batch.BatchViolationEngine` serve a whole dynamics
or widening-game run: :meth:`CompiledPopulation.remove` tombstones rows
in an alive mask (no array is rebuilt and no row moves).  Survivors keep
their rows, so every per-provider sum accumulates exactly as it would in
a fresh compile of the providers still present.
:meth:`CompiledPopulation.compacted` cuts the survivors' rows out of the
store, walking no provider, and equals such a fresh compile array for
array.
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
from ..core.sensitivity import AttributeSensitivities, SensitivityModel
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


class _Store:
    """What a compile reads of a population, whatever ``Sigma`` or policy.

    ``ids``, ``segments`` and ``thresholds`` are row-aligned.  The entry
    store (``entry_rows``, ``entry_ranks``) is grouped by column, and
    ``spans`` maps a column to its ``[start, stop)`` slice of it;
    ``provided`` maps an attribute to the rows that supplied it, and
    ``records`` to its ``(N, 4)`` sensitivity records, neutral (all ones)
    where a provider holds none.  Every array is read-only, so
    compilations share a store; it holds no provider.
    """

    __slots__ = (
        "ids",
        "segments",
        "thresholds",
        "entry_rows",
        "entry_ranks",
        "spans",
        "provided",
        "records",
    )

    def __init__(
        self,
        ids: tuple[Hashable, ...],
        segments: tuple[str | None, ...],
        thresholds: np.ndarray,
        entry_rows: np.ndarray,
        entry_ranks: np.ndarray,
        spans: dict[tuple[str, str], tuple[int, int]],
        provided: dict[str, np.ndarray],
        records: dict[str, np.ndarray],
    ) -> None:
        for array in chain(
            (thresholds, entry_rows, entry_ranks), provided.values(), records.values()
        ):
            array.flags.writeable = False
        self.ids = ids
        self.segments = segments
        self.thresholds = thresholds
        self.entry_rows = entry_rows
        self.entry_ranks = entry_ranks
        self.spans = spans
        self.provided = provided
        self.records = records

    @classmethod
    def walk(cls, providers: Sequence[Provider]) -> _Store:
        """The store of *providers*, read from their objects."""
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
        held: dict[str, tuple[list[int], list]] = {}  # rows, records
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
            for attribute, datum in provider.sensitivity.items():
                rows_data = held.get(attribute)
                if rows_data is None:
                    rows_data = held[attribute] = ([], [])
                rows_data[0].append(row)
                rows_data[1].append(datum)

        # The entry store: one stable sort by column keeps each column's
        # rows in row order and, within a row, in entry order.
        tuples = np.array(distinct, dtype=np.int64).reshape(-1, 4)
        entry_tuples = np.array(codes, dtype=np.intp)
        entry_columns = tuples[entry_tuples, 0]
        order = np.argsort(entry_columns, kind="stable")
        bounds = np.searchsorted(entry_columns[order], np.arange(len(columns) + 1))
        records = {}
        for attribute, (rows, data) in held.items():
            array = np.ones((len(counts), 4))
            array[rows] = np.fromiter(
                chain.from_iterable(map(_DATUM_FIELDS, data)), np.float64, 4 * len(data)
            ).reshape(-1, 4)
            records[attribute] = array
        return cls(
            tuple([p.provider_id for p in providers]),
            tuple([p.segment for p in providers]),
            np.array([p.threshold for p in providers], dtype=np.float64),
            np.repeat(np.arange(len(counts), dtype=np.int64), counts)[order],
            tuples[entry_tuples[order], 1:],
            {key: (int(bounds[i]), int(bounds[i + 1])) for key, i in columns.items()},
            {
                attribute: np.array(supplied, dtype=np.int64)
                for attribute, (supplied, _) in groups.items()
            },
            records,
        )

    def cut(self, rows: np.ndarray) -> _Store:
        """The store of *rows* (sorted, distinct), renumbered ``0..``.

        The selected rows keep their order and every entry its place in
        its column, so the cut equals the walk of those rows' providers
        array for array.
        """
        selected = np.zeros(len(self.ids), dtype=bool)
        selected[rows] = True
        renumber = np.cumsum(selected, dtype=np.int64) - 1
        # The kept entries' positions; an old span edge moves to the
        # number of kept entries before it.
        kept = np.flatnonzero(selected[self.entry_rows])
        spans = self.spans
        edges = np.searchsorted(
            kept, np.fromiter(chain.from_iterable(spans.values()), np.intp, 2 * len(spans))
        ).tolist()
        listed = rows.tolist()
        ids, segments = self.ids, self.segments
        return _Store(
            tuple([ids[row] for row in listed]),
            tuple([segments[row] for row in listed]),
            self.thresholds[rows],
            renumber.take(self.entry_rows.take(kept)),
            self.entry_ranks.take(kept, axis=0),
            {
                key: (begin, end)
                for key, begin, end in zip(spans, edges[0::2], edges[1::2])
                if begin < end
            },
            {
                attribute: renumber[supplied[selected[supplied]]]
                for attribute, supplied in self.provided.items()
            },
            {
                attribute: records.take(rows, axis=0)
                for attribute, records in self.records.items()
            },
        )


class CompiledPopulation:
    """A :class:`~repro.core.population.Population` flattened for batch use.

    The arrays span every **row**, tombstoned ones included:
    ``len(compiled)``, :attr:`ids`, :attr:`thresholds` and every column
    are row-aligned.  The providers still present are the rows of
    :attr:`alive_rows`; :attr:`population` is them as a
    :class:`~repro.core.population.Population`.

    Thresholds and weights come from the providers' own records, the
    same arithmetic the population's own models perform;
    :meth:`models_for` builds those models for a few providers when a
    caller needs them.  A population that carries a store (a generated
    one, or a subset of it) is compiled by cutting that store; any other
    is walked.
    """

    __slots__ = (
        "_population",
        "_sigma",
        "_providers",
        "_store",
        "_index",
        "_alive",
        "_dead",
        "_alive_view",
        "_weights_by_attribute",
        "_columns",
    )

    def __init__(self, population: Population) -> None:
        if not isinstance(population, Population):
            raise ValidationError(
                f"population must be a Population, got {type(population).__name__}"
            )
        start = perf_counter() if active_observer() is not None else 0.0
        carried = population._store
        if carried is None:
            store, source = _Store.walk(population.providers), "walk"
        else:
            store, rows = carried
            if rows is not None:
                store = store.cut(rows)
            source = "cut"
        self._install(
            population,
            population.providers,
            population.attribute_sensitivities,
            store,
            start,
            source,
        )

    def _install(
        self,
        population: Population | None,
        providers: tuple[Provider, ...],
        sigma: AttributeSensitivities,
        store: _Store,
        start: float,
        source: str,
    ) -> None:
        """Compile over *store*, every row alive; counts one compilation.

        *source* labels the compile time: ``walk`` when the store was
        walked from the providers, ``cut`` when it was carried or cut.
        """
        self._population = population
        self._providers = providers
        self._sigma = sigma
        self._store = store
        self._index = {pid: i for i, pid in enumerate(store.ids)}
        self._alive = np.ones(len(store.ids), dtype=bool)
        self._dead = 0
        self._alive_view: tuple | None = None
        self._weights_by_attribute: dict[str, np.ndarray] = {}
        self._columns: dict[tuple[str, str], CompiledColumn] = {}
        obs = active_observer()
        if obs is not None:
            obs.inc("perf.compilations")
            obs.set_gauge("perf.compiled_providers", len(store.ids))
            obs.observe(
                "perf.compile_seconds", perf_counter() - start, source=source
            )

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
        return self._store.ids

    def provider(self, row: int) -> Provider:
        """The :class:`Provider` compiled at *row* (tombstoned or not)."""
        return self._providers[row]

    @property
    def segments(self) -> tuple[str | None, ...]:
        """Per-provider segment labels, in row order."""
        return self._store.segments

    @property
    def thresholds(self) -> np.ndarray:
        """The threshold vector ``v`` (row-aligned, ``inf`` = never)."""
        return self._store.thresholds

    def __len__(self) -> int:
        return len(self._store.ids)

    def __repr__(self) -> str:
        return (
            f"CompiledPopulation({self.alive_count} providers, "
            f"{self._dead} tombstoned, {len(self._store.spans)} explicit columns)"
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
        return len(self) - self._dead

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
            ids, segments = self._store.ids, self._store.segments
            if self._dead:
                listed = rows.tolist()
                view = (
                    rows,
                    tuple([ids[row] for row in listed]),
                    tuple([segments[row] for row in listed]),
                )
            else:
                view = (rows, ids, segments)
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

        A provider's datum is its own record, which is what the
        population's sensitivity model returns for it; an attribute no
        provider holds a record for weighs neutral.  The records' fields
        are multiplied in NumPy in the order
        ``(Sigma^a x s_i^a) x s_i^a[dim]``, the order of Eq. 14.
        """
        cached = self._weights_by_attribute.get(attribute)
        if cached is not None:
            return cached
        records = self._store.records.get(attribute)
        if records is None:
            records = np.ones((len(self), 4))
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
        store = self._store
        weights = self.attribute_weights(attribute)
        start, stop = store.spans.get(key, (0, 0))
        row_providers = store.entry_rows[start:stop]
        row_ranks = store.entry_ranks[start:stop]
        row_weights = weights[row_providers]
        supplied = np.asarray(store.provided.get(attribute, ()), dtype=np.int64)
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

        Their rows are cut out of the store, walking no provider (the
        :class:`Population` is built on first read), so every array
        equals a fresh compile's, bit for bit.  Counts one compilation.
        """
        start = perf_counter() if active_observer() is not None else 0.0
        rows = self.alive_rows
        providers = self._providers
        compacted = CompiledPopulation.__new__(CompiledPopulation)
        compacted._install(
            None,
            tuple([providers[row] for row in rows.tolist()]),
            self._sigma,
            self._store.cut(rows),
            start,
            "cut",
        )
        return compacted
