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
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Hashable

import numpy as np

from ..core.default import DefaultModel
from ..core.population import Population
from ..core.sensitivity import SensitivityModel
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

    Parameters
    ----------
    population:
        The providers to compile.
    sensitivities, default_model:
        Optional overrides, defaulting to the population's own models —
        the same contract as :class:`~repro.core.engine.ViolationEngine`.
    """

    __slots__ = (
        "_population",
        "_sensitivities",
        "_default_model",
        "_ids",
        "_index",
        "_segments",
        "_thresholds",
        "_strict",
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
        self._population = population
        self._sensitivities = (
            sensitivities
            if sensitivities is not None
            else population.sensitivity_model()
        )
        self._default_model = (
            default_model
            if default_model is not None
            else population.default_model()
        )
        obs = active_observer()
        start = perf_counter() if obs is not None else 0.0
        ids = population.ids()
        self._ids: tuple[Hashable, ...] = ids
        self._index: dict[Hashable, int] = {pid: i for i, pid in enumerate(ids)}
        self._segments = tuple(p.segment for p in population)
        self._thresholds = np.array(
            [self._default_model.threshold(pid) for pid in ids], dtype=np.float64
        )
        self._strict = self._default_model.strict

        # Group every explicit preference entry by (attribute, purpose):
        # column key -> ([provider row], [(V, G, R)]).  Also track which
        # providers supplied which attributes (the implicit-zero rule only
        # applies to supplied attributes) and which providers already hold
        # an explicit entry for a column (they are never completed).
        explicit_rows: dict[tuple[str, str], tuple[list[int], list[tuple[int, int, int]]]] = {}
        explicit_providers: dict[tuple[str, str], set[int]] = {}
        provided: dict[str, list[int]] = {}
        for row, provider in enumerate(population):
            preferences = provider.preferences
            for attribute in preferences.attributes_provided:
                provided.setdefault(attribute, []).append(row)
            for entry in preferences.entries:
                key = (entry.attribute, entry.purpose)
                providers, ranks = explicit_rows.setdefault(key, ([], []))
                providers.append(row)
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
        self._provided = {
            attribute: np.array(sorted(rows), dtype=np.int64)
            for attribute, rows in provided.items()
        }
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
        """The population this compilation was built from."""
        return self._population

    @property
    def sensitivities(self) -> SensitivityModel:
        """The sensitivity model baked into the weight tensors."""
        return self._sensitivities

    @property
    def default_model(self) -> DefaultModel:
        """The default-threshold model baked into ``thresholds``."""
        return self._default_model

    @property
    def ids(self) -> tuple[Hashable, ...]:
        """Provider ids, in population order (the array row order)."""
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
            f"CompiledPopulation({len(self._ids)} providers, "
            f"{len(self._explicit_rows)} explicit columns)"
        )

    def row_of(self, provider_id: Hashable) -> int:
        """The array row index of *provider_id*.

        Raises
        ------
        UnknownProviderError
            If the provider is not in the compiled population.
        """
        try:
            return self._index[provider_id]
        except KeyError:
            raise UnknownProviderError(provider_id) from None

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
        if cached is not None:
            return cached
        model = self._sensitivities
        attribute_weight = model.attribute_weight(attribute)
        weights = np.empty((len(self._ids), 3), dtype=np.float64)
        for row, pid in enumerate(self._ids):
            datum = model.datum(pid, attribute)
            base = attribute_weight * datum.value
            weights[row, 0] = base * datum.visibility
            weights[row, 1] = base * datum.granularity
            weights[row, 2] = base * datum.retention
        self._weights_by_attribute[attribute] = weights
        return weights

    def column(self, attribute: str, purpose: str) -> CompiledColumn:
        """The compiled column for ``(attribute, purpose)``.

        Materialised lazily and cached — the set of relevant columns is
        driven by the policies being evaluated, not by the population.
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
        supplied = self._provided.get(attribute)
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
