"""Policy-widening operators (Section 9's "expansion of privacy policies").

A widening step raises policy ranks — exposing data more widely, at finer
granularity, or for longer — and is the move whose pay-off Eqs. 25-31
analyse.  Unlike :meth:`HousePolicy.widened` (which shifts raw ranks),
these operators clamp against a taxonomy so a widening path can never
climb past the top of a ladder: repeated widening *saturates*, which is
what makes the sweep curves flatten at the ends.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .._validation import check_int
from ..obs import active_observer
from ..core.dimensions import Dimension, ORDERED_DIMENSIONS
from ..core.policy import HousePolicy
from ..core.tuples import PolicyEntry
from ..exceptions import SimulationError
from ..taxonomy.builder import Taxonomy


@dataclass(frozen=True)
class WideningStep:
    """One widening move: rank deltas per ordered dimension.

    ``uniform(k)`` raises every ordered dimension by ``k``;
    ``along(dim, k)`` targets a single dimension.  Steps compose with
    ``+`` so paths can mix moves.
    """

    deltas: Mapping[Dimension, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for dimension, delta in self.deltas.items():
            if not isinstance(dimension, Dimension) or not dimension.is_ordered:
                raise SimulationError(
                    f"widening steps move ordered dimensions, got {dimension!r}"
                )
            check_int(delta, f"delta[{dimension.value}]")
        object.__setattr__(self, "deltas", dict(self.deltas))

    @classmethod
    def uniform(cls, k: int = 1) -> "WideningStep":
        """Raise every ordered dimension by *k*."""
        k = check_int(k, "k")
        return cls({dim: k for dim in ORDERED_DIMENSIONS})

    @classmethod
    def along(cls, dimension: Dimension, k: int = 1) -> "WideningStep":
        """Raise one ordered *dimension* by *k*."""
        return cls({dimension: check_int(k, "k")})

    def __add__(self, other: "WideningStep") -> "WideningStep":
        if not isinstance(other, WideningStep):
            return NotImplemented
        merged = dict(self.deltas)
        for dimension, delta in other.deltas.items():
            merged[dimension] = merged.get(dimension, 0) + delta
        return WideningStep(merged)

    def scaled(self, factor: int) -> "WideningStep":
        """The step applied *factor* times."""
        factor = check_int(factor, "factor")
        return WideningStep(
            {dim: delta * factor for dim, delta in self.deltas.items()}
        )

    def is_noop(self) -> bool:
        """True when no dimension moves."""
        return all(delta == 0 for delta in self.deltas.values())


def widen(
    policy: HousePolicy,
    step: WideningStep,
    taxonomy: Taxonomy,
    *,
    attributes: Iterable[str] | None = None,
    purposes: Iterable[str] | None = None,
    name: str | None = None,
) -> HousePolicy:
    """Apply one widening *step* to *policy*, clamped to *taxonomy*.

    Every in-scope entry's ranks move by the step's deltas and are clamped
    into the corresponding ladder, so widening saturates at the ladder top
    instead of producing out-of-domain ranks.
    """
    obs = active_observer()
    if obs is not None:
        obs.inc("widening.applications")
    attribute_filter = None if attributes is None else set(attributes)
    purpose_filter = None if purposes is None else set(purposes)
    moves = [
        (dimension.value, taxonomy.domain(dimension), delta)
        for dimension, delta in step.deltas.items()
        if delta
    ]
    new_entries: list[PolicyEntry] = []
    for entry in policy:
        in_scope = (
            (attribute_filter is None or entry.attribute in attribute_filter)
            and (purpose_filter is None or entry.purpose in purpose_filter)
        )
        if not in_scope:
            new_entries.append(entry)
            continue
        ranks = {
            axis: domain.clamp(getattr(entry.tuple, axis) + delta)
            for axis, domain, delta in moves
        }
        new_entries.append(PolicyEntry(entry.attribute, entry.tuple.replace(**ranks)))
    return HousePolicy(
        new_entries,
        name=name if name is not None else f"{policy.name}+step",
    )


def policy_delta_columns(
    previous: HousePolicy, current: HousePolicy
) -> tuple[tuple[str, str], ...]:
    """The ``(attribute, purpose)`` columns whose entries differ.

    Consecutive policies on a widening path share most of their entries;
    this is the round-over-round delta the incremental engine exploits —
    only the returned columns can change any provider's score, so a
    cached evaluation of *previous* stays valid for every other column.
    Grouping uses :func:`repro.perf.batch.policy_columns`, the same
    decomposition the batch kernels evaluate, so "differs" here means
    exactly "evaluates differently" there — and the diff itself is
    :func:`repro.perf.batch.changed_column_keys`, the one helper the
    batch engine's delta path also uses.
    """
    from ..perf.batch import changed_column_keys, policy_columns

    return changed_column_keys(
        policy_columns(previous), policy_columns(current)
    )


def widening_policies(
    policy: HousePolicy,
    step: WideningStep,
    taxonomy: Taxonomy,
    max_steps: int,
    *,
    attributes: Iterable[str] | None = None,
    purposes: Iterable[str] | None = None,
) -> tuple[HousePolicy, ...]:
    """The materialised widening path, base policy first.

    Convenience for batch APIs that want the whole candidate list at once
    (e.g. :meth:`repro.perf.BatchViolationEngine.evaluate_policies`):
    ``widening_policies(...)[k]`` equals the ``k``-th policy yielded by
    :func:`widening_path` with the same arguments.  Consecutive policies
    differ only in the widened entries, which is exactly the single-rule
    delta shape the batch engine re-evaluates incrementally.
    """
    return tuple(
        widened
        for _, widened in widening_path(
            policy,
            step,
            taxonomy,
            max_steps,
            attributes=attributes,
            purposes=purposes,
        )
    )


def widening_path(
    policy: HousePolicy,
    step: WideningStep,
    taxonomy: Taxonomy,
    max_steps: int,
    *,
    attributes: Iterable[str] | None = None,
    purposes: Iterable[str] | None = None,
) -> Iterator[tuple[int, HousePolicy]]:
    """Yield ``(k, policy widened k times)`` for ``k = 0 .. max_steps``.

    Step 0 is the base policy itself.  Policies are named
    ``"<base>+<k>"`` so sweep rows are self-describing.  The scope is
    read once, so a one-shot iterable scopes every level.
    """
    max_steps = check_int(max_steps, "max_steps", minimum=0)
    if step.is_noop() and max_steps > 0:
        raise SimulationError("widening path with a no-op step never progresses")
    attributes = None if attributes is None else tuple(attributes)
    purposes = None if purposes is None else tuple(purposes)
    current = HousePolicy(policy.entries, name=f"{policy.name}+0")
    yield 0, current
    for k in range(1, max_steps + 1):
        current = widen(
            current,
            step,
            taxonomy,
            attributes=attributes,
            purposes=purposes,
            name=f"{policy.name}+{k}",
        )
        yield k, current
