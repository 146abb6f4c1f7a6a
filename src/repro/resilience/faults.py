"""Deterministic, seed-driven fault injection.

A :class:`FaultPlan` scripts *what* goes wrong *where*: each
:class:`FaultSpec` names an injection **site** (a stable string such as
``"db.execute"`` or ``"sweep.step"``), the fault **kind**, and either an
exact visit index (``at=3`` fires on the fourth visit to the site) or a
seeded per-visit probability.  Given the same plan, seed, and workload,
the same faults fire at the same points — chaos tests are replayable.

Fault kinds
-----------
``"locked"``
    Raise ``sqlite3.OperationalError("database is locked")`` — the
    contention error the storage layer must retry through.
``"disk_full"``
    Raise ``sqlite3.OperationalError("database or disk is full")``.
``"kill"``
    Raise :class:`~repro.exceptions.ProcessKilled` — a simulated process
    death at a checkpoint boundary.  Never caught by library code.
``"corrupt"``
    Flip one seeded byte of data passing through a byte site (journal
    payloads, exported documents), simulating silent media corruption.
``"nan"``
    Poison one seeded element of an array passing through an array site
    with ``NaN`` — the failure mode the engine guardrail must catch.
``"scale"``
    Multiply one seeded array element by a large factor, producing a
    finite-but-wrong severity (a divergence, not an obvious NaN).

Injection sites
---------------
``db.connect`` / ``db.execute`` / ``db.commit``
    The sqlite interposition points.  While a plan is :meth:`activated
    <FaultPlan.activate>`, every connection handed out by
    :func:`repro.storage.queries.connect` is wrapped in a
    :class:`FaultProxy` that consults the plan before each statement.
``journal.write``
    Bytes of a checkpoint payload about to be persisted.
``export.write``
    Bytes of a document about to be atomically exported.
``sweep.step`` / ``dynamics.round`` / ``forecast.observe``
    Fired by journaled runs (:func:`repro.resilience.resume.checkpoint`)
    after each checkpoint commits — ``kill`` faults here model dying
    *between* rounds.
``engine.violations``
    The batch engine's severity array, inside
    :class:`~repro.resilience.guardrail.GuardedBatchEngine`.
"""

from __future__ import annotations

import random
import sqlite3
from collections.abc import Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass

import numpy as np

from ..exceptions import FaultConfigError, ProcessKilled
from ..obs import active_observer

#: The recognised fault kinds.
FAULT_KINDS = ("locked", "disk_full", "kill", "corrupt", "nan", "scale")

#: Kinds that raise at any site (as opposed to transforming data).
_RAISING_KINDS = ("locked", "disk_full", "kill")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scripted fault: where, what, and when it fires.

    Parameters
    ----------
    site:
        The injection-site name (see the module docstring).
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Fire on the ``at``-th visit to the site (0-based).  Mutually
        exclusive with *probability*.
    count:
        With *at*: fire on ``count`` consecutive visits starting at
        ``at`` (so ``at=0, count=3`` models a lock held across the first
        three attempts, released before the fourth).
    probability:
        Fire on each visit independently with this probability, drawn
        from the plan's seeded RNG.  Mutually exclusive with *at*.
    """

    site: str
    kind: str
    at: int | None = None
    count: int = 1
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if (self.at is None) == (self.probability is None):
            raise FaultConfigError(
                "exactly one of at= and probability= must be given"
            )
        if self.at is not None and self.at < 0:
            raise FaultConfigError("at must be >= 0")
        if self.count < 1:
            raise FaultConfigError("count must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError("probability must be in [0, 1]")

    def _fires(self, visit: int, rng: random.Random) -> bool:
        if self.at is not None:
            return self.at <= visit < self.at + self.count
        return rng.random() < self.probability  # type: ignore[operator]


def _make_error(spec: FaultSpec) -> BaseException:
    if spec.kind == "locked":
        return sqlite3.OperationalError("database is locked")
    if spec.kind == "disk_full":
        return sqlite3.OperationalError("database or disk is full")
    return ProcessKilled(spec.site)


class FaultPlan:
    """A replayable schedule of faults over named injection sites.

    The plan tracks how many times each site has been visited; specs
    decide per visit whether they fire.  All randomness (probabilistic
    firing, which byte to flip, which element to poison) comes from one
    ``random.Random(seed)``, so a plan is a pure function of its
    construction arguments and the visit sequence.
    """

    def __init__(self, faults: Iterable[FaultSpec] = (), *, seed: int = 0) -> None:
        self._faults = tuple(faults)
        for spec in self._faults:
            if not isinstance(spec, FaultSpec):
                raise FaultConfigError(
                    f"faults must be FaultSpec, got {type(spec).__name__}"
                )
        self._rng = random.Random(seed)
        self._visits: dict[str, int] = {}
        self._fired: list[tuple[str, int, str]] = []

    @property
    def fired(self) -> tuple[tuple[str, int, str], ...]:
        """Every fault that fired so far, as ``(site, visit, kind)``."""
        return tuple(self._fired)

    def visits(self, site: str) -> int:
        """How many times *site* has been visited."""
        return self._visits.get(site, 0)

    def _visit(self, site: str) -> FaultSpec | None:
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        for spec in self._faults:
            if spec.site == site and spec._fires(visit, self._rng):
                self._fired.append((site, visit, spec.kind))
                obs = active_observer()
                if obs is not None:
                    obs.inc("faults.fired", site=site, kind=spec.kind)
                return spec
        return None

    # -- injection points ---------------------------------------------------

    def check(self, site: str) -> None:
        """Visit a raising site; raise if a raising fault fires there.

        Data-transforming kinds (``corrupt``/``nan``/``scale``) scripted
        against a raising site are a plan bug, reported loudly.
        """
        spec = self._visit(site)
        if spec is None:
            return
        if spec.kind not in _RAISING_KINDS:
            raise FaultConfigError(
                f"fault kind {spec.kind!r} cannot fire at raising site {site!r}"
            )
        raise _make_error(spec)

    def corrupt_bytes(self, site: str, data: bytes) -> bytes:
        """Visit a byte site; corrupt (or raise) when a fault fires.

        ``corrupt`` flips one seeded byte; raising kinds raise, modelling
        e.g. the disk filling up mid-export.
        """
        spec = self._visit(site)
        if spec is None:
            return data
        if spec.kind in _RAISING_KINDS:
            raise _make_error(spec)
        if spec.kind != "corrupt":
            raise FaultConfigError(
                f"fault kind {spec.kind!r} cannot fire at byte site {site!r}"
            )
        if not data:
            return data
        position = self._rng.randrange(len(data))
        corrupted = bytearray(data)
        corrupted[position] ^= 0xFF
        return bytes(corrupted)

    def poison_array(self, site: str, array: np.ndarray) -> np.ndarray:
        """Visit an array site; return a poisoned copy when a fault fires.

        ``nan`` sets one seeded element to NaN; ``scale`` multiplies one
        seeded element by 1e6 and adds 1 (a finite divergence).  The
        input array is never mutated — callers get a fresh copy.
        """
        spec = self._visit(site)
        if spec is None:
            return array
        if spec.kind in _RAISING_KINDS:
            raise _make_error(spec)
        if spec.kind == "corrupt":
            raise FaultConfigError(
                f"fault kind 'corrupt' cannot fire at array site {site!r}"
            )
        if array.size == 0:
            return array
        poisoned = np.array(array, dtype=np.float64, copy=True)
        position = self._rng.randrange(array.size)
        if spec.kind == "nan":
            poisoned.flat[position] = np.nan
        else:
            poisoned.flat[position] = poisoned.flat[position] * 1e6 + 1.0
        return poisoned

    # -- global activation --------------------------------------------------

    def activate(self) -> AbstractContextManager["FaultPlan"]:
        """Install this plan globally for the duration of a ``with`` block.

        While active, :func:`repro.storage.queries.connect` wraps every
        new connection in a :class:`FaultProxy` over this plan, and the
        journal/export byte sites consult it.
        """
        return _activated(self)


_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The globally activated plan, or ``None`` outside chaos runs."""
    return _ACTIVE


@contextmanager
def _activated(plan: FaultPlan) -> Iterator[FaultPlan]:
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


class FaultProxy:
    """A :class:`sqlite3.Connection` wrapper that consults a fault plan.

    Statement execution and commits visit the ``db.execute`` /
    ``db.commit`` sites before delegating; everything else (attribute
    access, transaction context management, cursors obtained through the
    proxied ``execute``) passes straight through, so the proxy is a
    drop-in connection for the storage layer.
    """

    def __init__(self, connection: sqlite3.Connection, plan: FaultPlan) -> None:
        object.__setattr__(self, "_connection", connection)
        object.__setattr__(self, "_plan", plan)

    def execute(self, sql: str, parameters=()) -> sqlite3.Cursor:
        self._plan.check("db.execute")
        return self._connection.execute(sql, parameters)

    def executemany(self, sql: str, parameters) -> sqlite3.Cursor:
        self._plan.check("db.execute")
        return self._connection.executemany(sql, parameters)

    def executescript(self, script: str) -> sqlite3.Cursor:
        self._plan.check("db.execute")
        return self._connection.executescript(script)

    def commit(self) -> None:
        self._plan.check("db.commit")
        self._connection.commit()

    def __enter__(self) -> "FaultProxy":
        self._connection.__enter__()
        return self

    def __exit__(self, exc_type, exc, traceback):
        return self._connection.__exit__(exc_type, exc, traceback)

    def __getattr__(self, name: str):
        return getattr(self._connection, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._connection, name, value)
