"""Time-dependent transition kernels on finite state spaces.

A schedule assigns one row-stochastic matrix to every step ``t >= 0``:
explicit matrices for an initial stretch (the body) followed by a
periodic tail; a constant tail is the period-1 cycle.  Tails are anchored
at time zero, i.e. step ``t`` uses ``values[t % period]``.  Birth-death
specs index their per-step down probabilities by the same rule.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ROW_SUM_TOL = 1e-12
INITIAL_SUM_TOL = 1e-12


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _sysconf_bytes(pages_name: str) -> int | None:
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf(pages_name)
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    return _sysconf_bytes("SC_PHYS_PAGES")


def available_memory() -> int | None:
    """Bytes of physical memory free now, reclaimable page cache left out,
    or None where ``os.sysconf`` cannot tell."""
    return _sysconf_bytes("SC_AVPHYS_PAGES")


def check_fits(nbytes: int, what: str, *, available: bool = False) -> None:
    """MemoryError unless ``nbytes`` fit in physical memory, or with
    ``available`` in the memory free now; no rule where that size is unknown.

    Run before allocating: on a host that overcommits, numpy reserves a
    larger array without failing, and touching its pages then gets the
    process killed instead of raising.
    """
    kind = "available" if available else "physical"
    total = available_memory() if available else physical_memory()
    if total is not None and nbytes > total:
        raise MemoryError(f"cannot allocate {what}: {nbytes:,} bytes exceed the "
                          f"{total:,} bytes of {kind} memory")


def _check_entries(matrix: np.ndarray, name: str) -> None:
    """ValueError naming ``name``, the row and the entry unless every entry is finite and nonnegative."""
    bad = np.argwhere(~(np.isfinite(matrix) & (matrix >= 0)))
    if len(bad):
        x, j = bad[0]
        raise ValueError(f"{name}, row {x}: entry {j} is {float(matrix[x, j])}; "
                         "entries must be finite and nonnegative")


def _check_initial(initial, size: int) -> np.ndarray:
    """An initial law on ``size`` states as a float vector; raises ValueError otherwise."""
    init = np.asarray(initial, dtype=float)
    if init.shape != (size,):
        raise ValueError(f"initial vector must have length {size}")
    if (init < 0).any():
        raise ValueError("initial vector has a negative entry")
    _check_entries(init[None, :], "initial law")
    if abs(float(init.sum()) - 1.0) > INITIAL_SUM_TOL:
        raise ValueError(f"initial vector sums to {float(init.sum()):.12g}, not 1")
    return init


def _target_states(targets: Iterable[int], size: int) -> list[int]:
    """Sorted target states; ValueError unless a nonempty set of integers in 0..size-1."""
    target = sorted(set(targets))
    if not target:
        raise ValueError("target set must be nonempty")
    if not all(isinstance(s, numbers.Integral) and 0 <= s < size for s in target):
        raise ValueError("target set must be a subset of {0..size-1}")
    return target


@dataclass(frozen=True)
class StateSpace:
    """States labeled 0..size-1 together with the nonempty target set."""

    size: int
    target_set: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "target_set", frozenset(self.target_set))
        if self.size < 1:
            raise ValueError("state space needs at least one state")
        _target_states(self.target_set, self.size)


@dataclass(frozen=True, eq=False)
class PeriodicTail:
    """Steps past the body cycle with absolute time: step t uses values[t % period]."""

    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("periodic tail needs at least one entry")
        object.__setattr__(self, "values", tuple(_frozen_array(v) for v in self.values))

    @property
    def period(self) -> int:
        return len(self.values)


def ConstantTail(value) -> PeriodicTail:
    """A tail that repeats one entry: the period-1 cycle."""
    return PeriodicTail((value,))


class _BodyThenTail:
    """Per-step entries: ``phases`` is the body, then one tail cycle, and
    ``phase(t)`` indexes it.  The joint estimator's step loop applies the
    same rule to its body and cycle tables itself (``simulate._step_lists``),
    with no call per step; ``TestJointOracle`` checks it against ``at``."""

    body: tuple[np.ndarray, ...]
    tail: PeriodicTail

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(_frozen_array(m) for m in self.body))
        object.__setattr__(self, "phases", (*self.body, *self.tail.values))

    def phase(self, t: int) -> int:
        """Index into ``phases`` of the entry governing the step from time t."""
        if t < 0:
            raise ValueError("time index must be nonnegative")
        n = len(self.body)
        return t if t < n else n + t % self.tail.period

    def at(self, t: int) -> np.ndarray:
        """The entry governing the step from time t to time t + 1."""
        return self.phases[self.phase(t)]

    def labeled(self) -> tuple[tuple[str, np.ndarray], ...]:
        """All distinct entries the schedule can produce, with labels."""
        n = len(self.body)
        return tuple((f"body[{i}]" if i < n else f"tail[{i - n}]", m) for i, m in enumerate(self.phases))


@dataclass(frozen=True, eq=False)
class KernelSchedule(_BodyThenTail):
    """One transition matrix per step: body matrices for t < len(body), then the tail."""

    space: StateSpace
    body: tuple[np.ndarray, ...]
    tail: PeriodicTail


def validate_schedule(schedule: KernelSchedule) -> list[str]:
    """Check shapes, entry ranges, and row sums; return a list of violations.

    An empty list means the schedule is valid.  Row sums are compared to 1
    within ``ROW_SUM_TOL``.
    """
    violations: list[str] = []
    n = schedule.space.size
    for label, mat in schedule.labeled():
        if mat.shape != (n, n):
            violations.append(f"{label}: expected shape {(n, n)}, got {mat.shape}")
            continue
        for i in range(n):
            row = mat[i]
            if not np.isfinite(row).all():
                violations.append(f"{label}: row {i} has a non-finite entry")
                continue
            if (row < 0).any():
                violations.append(f"{label}: row {i} has a negative entry")
            if (row > 1).any():
                violations.append(f"{label}: row {i} has an entry above 1")
            s = float(row.sum())
            if abs(s - 1.0) > ROW_SUM_TOL:
                violations.append(f"{label}: row {i} sums to {s:.12g}")
    return violations


@dataclass(frozen=True, eq=False)
class BirthDeathSpec(_BodyThenTail):
    """Nearest-neighbour chain on 0..cap with step-dependent down probabilities.

    Interior states step down with probability ``alpha(t, j) = at(t)[j]``
    and up otherwise; state 0 stays put instead of stepping down; the cap
    state reflects down with probability one.  Down probabilities are
    given per step like a schedule: explicit rows for t < len(body), then
    a periodic tail.  Each row holds alpha(t, j) for j = 0..cap-1 (the cap
    row is deterministic and carries no parameter).
    """

    cap: int
    body: tuple[np.ndarray, ...]
    tail: PeriodicTail

    def __post_init__(self):
        if self.cap < 2:
            raise ValueError("cap must be at least 2")
        super().__post_init__()
        for label, row in self.labeled():
            if row.shape != (self.cap,):
                raise ValueError(f"{label}: expected {self.cap} down probabilities, got {row.shape}")
            if not ((row > 0) & (row < 1)).all():
                raise ValueError(f"{label}: down probabilities must lie strictly in (0, 1)")

    def min_alpha_at_zero(self) -> float:
        """inf over t of the stay probability at state 0 (exact on this representation)."""
        return min(float(r[0]) for r in self.phases)

    def inf_alpha(self) -> float:
        """inf over t, j of the down probability alpha(t, j)."""
        return min(float(r.min()) for r in self.phases)

    @property
    def size(self) -> int:
        return self.cap + 1


def _birth_death_matrix(row: np.ndarray, cap: int) -> np.ndarray:
    n = cap + 1
    m = np.zeros((n, n))
    m[0, 0] = row[0]
    m[0, 1] = 1.0 - row[0]
    for j in range(1, cap):
        m[j, j - 1] = row[j]
        m[j, j + 1] = 1.0 - row[j]
    m[cap, cap - 1] = 1.0
    return m


def birth_death_schedule(spec: BirthDeathSpec, target_set: Iterable[int] = (0,)) -> KernelSchedule:
    """Materialize a birth-death spec as a kernel schedule on 0..cap."""
    space = StateSpace(spec.size, frozenset(target_set))
    body = tuple(_birth_death_matrix(r, spec.cap) for r in spec.body)
    tail = PeriodicTail(tuple(_birth_death_matrix(r, spec.cap) for r in spec.tail.values))
    return KernelSchedule(space, body, tail)


def constant_birth_death(cap: int, alpha: float | Iterable[float]) -> BirthDeathSpec:
    """Spec whose down probabilities do not depend on the step."""
    return periodic_birth_death(cap, [alpha])


def periodic_birth_death(cap: int, alphas: Iterable[float | Iterable[float]]) -> BirthDeathSpec:
    """Spec whose down probabilities cycle periodically with the step."""
    rows = tuple(np.full(cap, float(a)) if np.isscalar(a) else np.asarray(a, float) for a in alphas)
    return BirthDeathSpec(cap=cap, body=(), tail=PeriodicTail(rows))
