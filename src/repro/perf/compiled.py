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

A compilation also takes departures in place, which is what lets one
:class:`~repro.perf.batch.BatchViolationEngine` serve a whole dynamics
or widening-game run: :meth:`CompiledPopulation.remove` tombstones rows
in an alive mask (no array is rebuilt and no row moves).  Survivors keep
their rows, so every per-provider sum accumulates exactly as it would in
a fresh compile of the providers still present.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        "_models",
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
        self._models: tuple[SensitivityModel, DefaultModel] | None = None
        providers = population.providers
        self._providers: tuple[Provider, ...] = providers
        ids = population.ids()
        self._ids: tuple[Hashable, ...] = ids
        self._index: dict[Hashable, int] = {pid: i for i, pid in enumerate(ids)}
        self._segments = tuple(p.segment for p in providers)
        self._thresholds = np.array(
            [default_model.threshold(pid) for pid in ids]
            if default_model is not None
            else [p.threshold for p in providers],
            dtype=np.float64,
        )
        self._strict = default_model.strict if default_model is not None else True
        self._alive = np.ones(len(ids), dtype=bool)
        self._dead = 0
        self._alive_view: tuple | None = None

        # Group every explicit preference entry by (attribute, purpose):
        # column key -> ([provider row], [(V, G, R)]).  Also track which
        # providers supplied which attributes (the implicit-zero rule only
        # applies to supplied attributes).  Rows are visited in order, so
        # every list stays sorted.
        explicit_rows: dict[tuple[str, str], tuple[list[int], list[tuple[int, int, int]]]] = {}
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
        self._explicit_rows = explicit_rows
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

        The compiled population itself until the first removal; after
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
        """The sensitivity model in force for the present providers
        (built on first read, see :meth:`models_for`)."""
        return self._present_models()[0]

    @property
    def default_model(self) -> DefaultModel:
        """The default model in force for the present providers
        (built on first read, see :meth:`models_for`)."""
        return self._present_models()[1]

    def models_for(
        self, providers: Sequence[Provider]
    ) -> tuple[SensitivityModel, DefaultModel]:
        """The sensitivity and default models in force for *providers*.

        Each is the override given at compile time, or else built from
        *providers*' own records, which is what the present population's
        model holds for them.  A caller that needs the models for a few
        rows passes just their providers and pays for those alone.
        """
        sensitivities = self._sensitivity_override
        if sensitivities is None:
            sensitivities = SensitivityModel.from_providers(self._sigma, providers)
        default_model = self._default_override
        if default_model is None:
            default_model = DefaultModel.from_providers(providers)
        return sensitivities, default_model

    def _present_models(self) -> tuple[SensitivityModel, DefaultModel]:
        models = self._models
        if models is None:
            models = self._models = self.models_for(self.population.providers)
        return models

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

        Without an override, a provider's datum is read from its own
        record, which is what the population's sensitivity model returns
        for it, so the multiplications are the same, in the same order.
        """
        cached = self._weights_by_attribute.get(attribute)
        if cached is not None:
            return cached
        model = self._sensitivity_override
        if model is None:
            attribute_weight = self._sigma.weight(attribute)
            data = [
                provider.sensitivity.get(attribute, NEUTRAL_SENSITIVITY)
                for provider in self._providers
            ]
        else:
            attribute_weight = model.attribute_weight(attribute)
            data = [model.datum(pid, attribute) for pid in self._ids]
        flat: list[float] = []
        for datum in data:
            base = attribute_weight * datum.value
            flat += (
                base * datum.visibility,
                base * datum.granularity,
                base * datum.retention,
            )
        cached = np.array(flat, dtype=np.float64).reshape(-1, 3)
        self._weights_by_attribute[attribute] = cached
        return cached

    def column(self, attribute: str, purpose: str) -> CompiledColumn:
        """The compiled column for ``(attribute, purpose)``.

        Materialised lazily and cached — the set of relevant columns is
        driven by the policies being evaluated, not by the population.
        Removals keep it.
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
        self._models = None
        self._alive_view = None
        return rows

    def compacted(self) -> "CompiledPopulation":
        """A fresh compilation of the present providers, same overrides."""
        return CompiledPopulation(
            self.population,
            sensitivities=self._sensitivity_override,
            default_model=self._default_override,
        )
