"""Unit tests for the one-time population compilation, its compaction and
the store a generated population carries."""

from __future__ import annotations

import dataclasses
import gc
import math
import random

import numpy as np
import pytest

from repro.core import (
    DimensionSensitivity,
    HousePolicy,
    Population,
    PrivacyTuple,
    Provider,
    ProviderPreferences,
)
from repro.datasets import (
    crm_scenario,
    healthcare_scenario,
    social_network_scenario,
)
from repro.datasets.government import (
    GOVERNMENT_ATTRIBUTES,
    government_policy,
    government_segments,
    government_taxonomy,
)
from repro.exceptions import UnknownProviderError, ValidationError
from repro.obs import observed
from repro.perf import (
    RANK_AXES,
    BatchViolationEngine,
    CompiledColumn,
    CompiledPopulation,
)
from repro.perf.batch import COMPACT_THRESHOLD
from repro.simulation import (
    PopulationSpec,
    generate_population,
    run_dynamics,
    run_expansion_sweep,
)

from tests.properties.test_batch_parity import _random_population


@pytest.fixture()
def small_population() -> Population:
    alice = Provider(
        preferences=ProviderPreferences(
            "alice",
            [
                ("weight", PrivacyTuple("billing", 2, 1, 2)),
                ("weight", PrivacyTuple("research", 1, 1, 1)),
                ("name", PrivacyTuple("billing", 3, 3, 3)),
            ],
        ),
        sensitivity={
            "weight": DimensionSensitivity(
                value=2.0, visibility=1.5, granularity=1.0, retention=0.5
            )
        },
        threshold=5.0,
        segment="pragmatist",
    )
    # Bob supplies "weight" but states no preference for it at all: every
    # purpose column on "weight" completes him with an implicit zero.
    bob = Provider(
        preferences=ProviderPreferences(
            "bob",
            [("name", PrivacyTuple("billing", 1, 1, 1))],
            attributes_provided=["name", "weight"],
        ),
        threshold=math.inf,
    )
    return Population([alice, bob], attribute_sensitivities={"weight": 3.0})


class TestConstruction:
    def test_rejects_non_population(self):
        with pytest.raises(ValidationError):
            CompiledPopulation(["not a population"])  # type: ignore[arg-type]

    def test_rank_axes_order(self):
        assert RANK_AXES == ("visibility", "granularity", "retention")

    def test_ids_follow_population_order(self, small_population):
        compiled = CompiledPopulation(small_population)
        assert compiled.ids == ("alice", "bob")
        assert len(compiled) == 2
        assert compiled.row_of("bob") == 1

    def test_row_of_unknown_provider_raises(self, small_population):
        compiled = CompiledPopulation(small_population)
        with pytest.raises(UnknownProviderError):
            compiled.row_of("mallory")

    def test_thresholds_and_segments(self, small_population):
        compiled = CompiledPopulation(small_population)
        assert compiled.thresholds.tolist() == [5.0, math.inf]
        assert compiled.segments == ("pragmatist", None)


class TestWeights:
    def test_attribute_weights_shape_and_values(self, small_population):
        compiled = CompiledPopulation(small_population)
        weights = compiled.attribute_weights("weight")
        assert weights.shape == (2, 3)
        # Alice: Sigma^weight=3, value=2 -> base 6; per-dim 1.5/1.0/0.5.
        assert weights[0].tolist() == [9.0, 6.0, 3.0]
        # Bob has no sensitivity record: everything neutral -> 3x1x1.
        assert weights[1].tolist() == [3.0, 3.0, 3.0]

    def test_weights_multiply_in_eq14_order(self):
        # (Sigma^a x s_i^a) x s_i^a[dim], exactly: with these factors the
        # other association gives different floats.
        population = Population(
            [
                Provider(
                    preferences=ProviderPreferences(
                        "p", [("weight", PrivacyTuple("billing", 1, 1, 1))]
                    ),
                    sensitivity={
                        "weight": DimensionSensitivity(
                            value=2.6, visibility=0.9, granularity=2.4, retention=1.7
                        )
                    },
                )
            ],
            attribute_sensitivities={"weight": 1.5},
        )
        base = 1.5 * 2.6
        expected = [base * 0.9, base * 2.4, base * 1.7]
        assert all(
            a != 1.5 * (2.6 * d) for a, d in zip(expected, (0.9, 2.4, 1.7))
        )
        compiled = CompiledPopulation(population)
        assert compiled.attribute_weights("weight").tolist() == [expected]

    def test_attribute_weights_cached(self, small_population):
        compiled = CompiledPopulation(small_population)
        assert compiled.attribute_weights("name") is compiled.attribute_weights(
            "name"
        )


class TestColumns:
    def test_explicit_rows(self, small_population):
        compiled = CompiledPopulation(small_population)
        column = compiled.column("weight", "billing")
        assert column.n_rows == 1
        assert column.row_providers.tolist() == [0]
        assert column.row_ranks.tolist() == [[2, 1, 2]]
        assert column.row_weights.tolist() == [[9.0, 6.0, 3.0]]

    def test_implicit_completion_only_for_suppliers_without_entry(
        self, small_population
    ):
        compiled = CompiledPopulation(small_population)
        # Bob supplied "weight" with no preference: implicit on any purpose.
        assert compiled.column("weight", "billing").implicit_providers.tolist() == [1]
        assert compiled.column("weight", "research").implicit_providers.tolist() == [1]
        # Both explicitly cover ("name", "billing"): nobody is implicit.
        assert compiled.column("name", "billing").n_implicit == 0
        # Neither covers ("name", "research"): both are implicit.
        assert compiled.column("name", "research").implicit_providers.tolist() == [0, 1]

    def test_unknown_attribute_column_is_empty(self, small_population):
        compiled = CompiledPopulation(small_population)
        column = compiled.column("fingerprint", "billing")
        assert column.n_rows == 0
        assert column.n_implicit == 0

    def test_columns_cached(self, small_population):
        compiled = CompiledPopulation(small_population)
        assert compiled.column("weight", "billing") is compiled.column(
            "weight", "billing"
        )

    def test_several_rows_per_provider(self, small_population):
        # Alice holds two "weight" tuples for different purposes; within
        # one column only the matching one appears.
        compiled = CompiledPopulation(small_population)
        research = compiled.column("weight", "research")
        assert research.row_ranks.tolist() == [[1, 1, 1]]

    def test_row_weights_aligned_with_rows(self, small_population):
        compiled = CompiledPopulation(small_population)
        column = compiled.column("name", "billing")
        weights = compiled.attribute_weights("name")
        assert np.array_equal(
            column.row_weights, weights[column.row_providers]
        )


# ---------------------------------------------------------------------------
# compaction: the survivors' store cut by mask
# ---------------------------------------------------------------------------

ATTRIBUTES = ("name", "weight", "salary")
PURPOSES = ("billing", "research", "audit")
ALL_COLUMNS = tuple((a, p) for a in ATTRIBUTES for p in PURPOSES)


def _sensitivity(*values: float) -> DimensionSensitivity:
    return DimensionSensitivity.from_sequence(values)


def _provider(pid, entries, provided=None, *, threshold, segment=None, **sens):
    return Provider(
        preferences=ProviderPreferences(
            pid,
            [(a, PrivacyTuple(p, *ranks)) for a, p, ranks in entries],
            attributes_provided=provided,
        ),
        sensitivity={a: _sensitivity(*values) for a, values in sens.items()},
        threshold=threshold,
        segment=segment,
    )


def _edge_population() -> Population:
    """Providers covering every shape a column can take."""
    return Population(
        [
            _provider(
                "a",
                [("weight", "billing", (2, 1, 0)), ("name", "research", (1, 1, 1))],
                threshold=3.0,
                segment="pragmatist",
                weight=(1.1, 0.7, 1.3, 2.9),
            ),
            # Two tuples on one (attribute, purpose), in entry order.
            _provider(
                "multi",
                [
                    ("weight", "billing", (3, 0, 1)),
                    ("name", "billing", (0, 2, 2)),
                    ("weight", "billing", (1, 2, 3)),
                ],
                threshold=math.inf,
                name=(0.3, 1.7, 0.1, 2.2),
            ),
            # Supplied "name" and "salary" but holds no entry for them.
            _provider(
                "silent",
                [("weight", "research", (0, 0, 4))],
                ["weight", "name", "salary"],
                threshold=0.5,
                segment="fundamentalist",
                salary=(2.3, 0.9, 1.9, 0.6),
            ),
            # No preferences and no supplied attribute at all.
            _provider("empty", [], threshold=1.0),
            # The only holder of ("salary", "audit").
            _provider(
                "lonely",
                [("salary", "audit", (2, 2, 2)), ("weight", "billing", (0, 1, 0))],
                threshold=2.0,
                salary=(1.4, 1.1, 0.2, 3.3),
            ),
            _provider(
                "b",
                [("weight", "billing", (1, 1, 1)), ("salary", "research", (3, 1, 2))],
                ["weight", "salary", "name"],
                threshold=4.5,
                segment="unconcerned",
            ),
            _provider(
                "c",
                [
                    ("name", "research", (2, 0, 0)),
                    ("name", "research", (0, 3, 0)),
                    ("weight", "audit", (1, 0, 2)),
                ],
                threshold=0.0,
                weight=(0.6, 2.1, 0.8, 1.7),
            ),
        ],
        attribute_sensitivities={"weight": 1.3, "name": 0.7},
    )


def _assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_same_compilation(actual, expected, columns) -> None:
    """Equal ids, segments, thresholds, weight tensors and every field
    of every given column, array for array."""
    assert actual.ids == expected.ids
    assert actual.segments == expected.segments
    _assert_same_array(actual.thresholds, expected.thresholds)
    for attribute in dict.fromkeys(a for a, _ in columns):
        _assert_same_array(
            actual.attribute_weights(attribute), expected.attribute_weights(attribute)
        )
    for key in columns:
        got, want = actual.column(*key), expected.column(*key)
        for field in dataclasses.fields(CompiledColumn):
            value = getattr(want, field.name)
            if isinstance(value, np.ndarray):
                _assert_same_array(getattr(got, field.name), value)
            else:
                assert getattr(got, field.name) == value


def _survivors(population: Population, victims) -> Population:
    gone = set(victims)
    return Population(
        [p for p in population if p.provider_id not in gone],
        population.attribute_sensitivities,
    )


class TestCompaction:
    def test_compacted_equals_fresh_compile(self):
        population = _edge_population()
        compiled = CompiledPopulation(population)
        # The "name" and "weight" columns are materialised before the
        # removal, so their weight tensors are cut; "salary" is first
        # read after it.
        for key in ALL_COLUMNS[:6]:
            compiled.column(*key)
        victims = ["a", "lonely", "c"]
        compiled.remove(victims)
        compacted = compiled.compacted()
        fresh = CompiledPopulation(_survivors(population, victims))
        _assert_same_compilation(
            compacted, fresh, ALL_COLUMNS + (("fingerprint", "billing"),)
        )
        assert compacted.population.ids() == fresh.ids
        assert compacted.alive_count == len(compacted) == 4
        # Every holder of ("salary", "audit") has left.
        assert compacted.column("salary", "audit").n_rows == 0
        # Two tuples on one column keep their entry order.
        assert compacted.column("weight", "billing").row_ranks.tolist() == [
            [3, 0, 1],
            [1, 2, 3],
            [1, 1, 1],
        ]
        # Supplied without an entry: completed with the implicit zero.
        implicit = compacted.column("salary", "billing").implicit_providers
        assert compacted.row_of("silent") in implicit.tolist()

    def test_chained_compactions_equal_fresh_compiles(self):
        population = _edge_population()
        compiled = CompiledPopulation(population)
        gone: list = []
        for victims in (["multi"], ["empty", "b"], ["silent"]):
            compiled.column("name", "research")
            compiled.remove(victims)
            compiled = compiled.compacted()
            gone += victims
            fresh = CompiledPopulation(_survivors(population, gone))
            _assert_same_compilation(compiled, fresh, ALL_COLUMNS)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_removals_equal_fresh_compile(self, seed):
        rng = random.Random(seed)
        population = _random_population(rng)
        if seed % 2:
            population = population.with_attribute_sensitivities({"salary": 1.9})
        compiled = CompiledPopulation(population)
        columns = tuple(
            (a, p)
            for a in ("name", "weight", "diagnosis", "salary")
            for p in ("billing", "research", "marketing")
        )
        for key in rng.sample(columns, 4):
            compiled.column(*key)
        ids = list(population.ids())
        victims = rng.sample(ids, rng.randrange(0, len(ids) + 1))
        compiled.remove(victims)
        fresh = CompiledPopulation(_survivors(population, victims))
        _assert_same_compilation(compiled.compacted(), fresh, columns)

    def test_compaction_reads_no_preferences(self, monkeypatch):
        population = healthcare_scenario(60, seed=5).population
        policy = HousePolicy(
            [
                (attribute, PrivacyTuple(purpose, 5, 5, 5))
                for attribute in ("age", "weight", "diagnosis", "income")
                for purpose in ("billing", "research", "treatment")
            ],
            name="wide",
        )
        # "later" adds a column first read after the compaction.
        later = HousePolicy(
            [(e.attribute, e.tuple) for e in policy.entries]
            + [("medication", PrivacyTuple("research", 2, 2, 2))],
            name="later",
        )
        n_victims = int(COMPACT_THRESHOLD * len(population)) + 1
        victims = [p.provider_id for p in population.providers[:n_victims]]
        survivors = _survivors(population, victims)
        expected = [
            BatchViolationEngine(survivors).evaluate(p) for p in (policy, later)
        ]
        assert expected[0].n_defaulted > 0
        engine = BatchViolationEngine(population)
        engine.evaluate(policy)

        def unreadable(*args):
            raise AssertionError("a provider's preferences were read")

        monkeypatch.setattr(ProviderPreferences, "entries", property(unreadable))
        monkeypatch.setattr(
            ProviderPreferences, "attributes_provided", property(unreadable)
        )
        monkeypatch.setattr(ProviderPreferences, "for_attribute", unreadable)
        with observed() as obs:
            engine.remove(victims)
            reports = [engine.evaluate(p) for p in (policy, later)]
            counters = {c["name"]: c["value"] for c in obs.snapshot()["counters"]}
        assert counters["delta.compactions"] == 1.0
        assert counters["perf.compilations"] == 1.0
        for report, want in zip(reports, expected):
            assert report.provider_ids == want.provider_ids
            _assert_same_array(report.violations, want.violations)
            _assert_same_array(report.defaulted, want.defaulted)
            assert report.defaulted_ids() == want.defaulted_ids()


# ---------------------------------------------------------------------------
# a generated population's carried store: every cut held to the walk
# ---------------------------------------------------------------------------

SCENARIOS = {
    "healthcare": healthcare_scenario,
    "crm": crm_scenario,
    "social_network": social_network_scenario,
}
SIZES_AND_SEEDS = ((40, 1), (120, 2), (300, 5))


def _generated(name: str, n: int, seed: int):
    """A generated population, carrying its store, with a policy and
    taxonomy to run it under.

    ``government`` is the population ``government_scenario`` generates
    before it re-thresholds its captive citizens (which builds a new,
    store-less population).
    """
    if name == "government":
        taxonomy = government_taxonomy()
        policy = government_policy(taxonomy)
        spec = PopulationSpec(
            taxonomy=taxonomy,
            attributes=GOVERNMENT_ATTRIBUTES,
            n_providers=n,
            segments=government_segments(),
            seed=seed,
            id_prefix="citizen-",
            anchor_policy=policy,
        )
        return generate_population(spec), policy, taxonomy
    scenario = SCENARIOS[name](n, seed=seed)
    return scenario.population, scenario.policy, scenario.taxonomy


def _walked(population: Population) -> Population:
    """The same providers and Sigma carrying no store: compiled by the walk."""
    return Population(population.providers, population.attribute_sensitivities)


def _every_column(population: Population) -> tuple[tuple[str, str], ...]:
    """Every supplied or weighed attribute against every stated purpose,
    plus an attribute and a purpose nobody holds."""
    attributes = {"fingerprint"}
    purposes = {"nobody-states-this"}
    for provider in population:
        attributes |= provider.preferences.attributes_provided
        attributes |= set(provider.sensitivity)
        purposes |= {entry.tuple.purpose for entry in provider.preferences.entries}
    return tuple((a, p) for a in sorted(attributes) for p in sorted(purposes))


def _random_chain(rng: random.Random, root: Population):
    """``(move, population)`` for each step of a random chain from *root*.

    Two subsets (ids in shuffled order; the second is a subset of a
    subset), a ``without``, a new Sigma and a full selection, shuffled,
    then the empty selection.
    """
    moves = ["subset", "subset", "without", "sigma", "full"]
    rng.shuffle(moves)
    population = root
    for move in moves + ["empty"]:
        ids = list(population.ids())
        if move == "subset":
            population = population.subset(
                rng.sample(ids, rng.randint(len(ids) // 4, 3 * len(ids) // 4))
            )
        elif move == "without":
            population = population.without(rng.sample(ids, len(ids) // 3))
        elif move == "sigma":
            sigma = population.attribute_sensitivities.as_dict()
            population = population.with_attribute_sensitivities(
                {
                    attribute: rng.choice((0.5, 1.25, 2.0, 3.5))
                    for attribute in (*sigma, "fingerprint")
                }
            )
        elif move == "full":
            population = population.subset(rng.sample(ids, len(ids)))
        else:
            population = population.subset([])
        yield move, population


GENERATED_CASES = [
    (name, n, seed)
    for name in (*SCENARIOS, "government")
    for n, seed in SIZES_AND_SEEDS
]


class TestCarriedStore:
    @pytest.mark.parametrize("name,n,seed", GENERATED_CASES)
    def test_every_cut_equals_the_walk(self, name, n, seed):
        root, _, _ = _generated(name, n, seed)
        columns = _every_column(root)
        _assert_same_compilation(
            CompiledPopulation(root), CompiledPopulation(_walked(root)), columns
        )
        moves = []
        for move, population in _random_chain(random.Random(seed), root):
            moves.append(move)
            assert population._store is not None
            _assert_same_compilation(
                CompiledPopulation(population),
                CompiledPopulation(_walked(population)),
                columns,
            )
        assert moves[-1] == "empty" and not len(population)

    @pytest.mark.parametrize("name,n,seed", GENERATED_CASES)
    def test_compaction_of_a_cut_equals_a_fresh_walk(self, name, n, seed):
        rng = random.Random(seed)
        root, _, _ = _generated(name, n, seed)
        columns = _every_column(root)
        ids = list(root.ids())
        population = root.subset(rng.sample(ids, len(ids) // 2))
        compiled = CompiledPopulation(population)
        for key in rng.sample(columns, 4):
            compiled.column(*key)
        victims = rng.sample(list(population.ids()), rng.randrange(len(population)))
        compiled.remove(victims)
        _assert_same_compilation(
            compiled.compacted(),
            CompiledPopulation(_walked(population.without(victims))),
            columns,
        )

    @pytest.mark.parametrize("name", sorted((*SCENARIOS, "government")))
    def test_runs_on_a_subset_equal_runs_on_its_walked_copy(self, name):
        root, policy, taxonomy = _generated(name, 300, 4)
        ids = list(root.ids())
        subset = root.subset(random.Random(4).sample(ids, 200))
        walked = _walked(subset)
        assert run_dynamics(subset, policy, taxonomy, rounds=12) == run_dynamics(
            walked, policy, taxonomy, rounds=12
        )
        assert run_expansion_sweep(
            subset, policy, taxonomy, max_steps=6
        ) == run_expansion_sweep(walked, policy, taxonomy, max_steps=6)

    def test_compiling_a_generated_subset_reads_no_preferences(self, monkeypatch):
        root, _, _ = _generated("healthcare", 120, 5)
        policy = HousePolicy(
            [
                (attribute, PrivacyTuple(purpose, 5, 5, 5))
                for attribute in ("age", "weight", "diagnosis", "income")
                for purpose in ("billing", "research", "treatment")
            ],
            name="wide",
        )
        picked = random.Random(5).sample(list(root.ids()), 70)
        expected = BatchViolationEngine(_walked(root.subset(picked))).evaluate(policy)
        assert expected.n_defaulted > 0

        def unreadable(*args):
            raise AssertionError("a provider's preferences were read")

        monkeypatch.setattr(ProviderPreferences, "entries", property(unreadable))
        monkeypatch.setattr(
            ProviderPreferences, "attributes_provided", property(unreadable)
        )
        monkeypatch.setattr(ProviderPreferences, "for_attribute", unreadable)
        report = BatchViolationEngine(root.subset(picked)).evaluate(policy)
        assert report.provider_ids == expected.provider_ids
        _assert_same_array(report.violations, expected.violations)
        _assert_same_array(report.thresholds, expected.thresholds)
        assert report.defaulted_ids() == expected.defaulted_ids()

    def test_store_arrays_refuse_writes(self):
        root, policy, _ = _generated("healthcare", 60, 2)
        subset = root.subset(list(root.ids())[::2])
        for population in (root, subset, _walked(subset)):
            compiled = CompiledPopulation(population)
            column = compiled.column("weight", "billing")
            assert column.n_rows
            for array in (compiled.thresholds, column.row_providers, column.row_ranks):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
        # Two compiles of one generated population share its store, and a
        # report with nothing tombstoned hands out the store's thresholds.
        first, second = CompiledPopulation(root), CompiledPopulation(root)
        assert first.thresholds is second.thresholds
        assert BatchViolationEngine(first).evaluate(policy).thresholds is first.thresholds

    def test_dropped_runs_leave_no_reference_cycle(self):
        def run():
            for seed in range(3):
                scenario = healthcare_scenario(50, seed=seed)
                population = scenario.population
                CompiledPopulation(population)
                subset = population.subset(list(population.ids())[::2])
                run_dynamics(subset, scenario.policy, scenario.taxonomy, rounds=10)

        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
