"""Time-dependent transition kernels on finite state spaces.

A schedule assigns one row-stochastic matrix to every step ``t >= 0``:
explicit matrices for an initial stretch (the body) followed by a
periodic tail; a constant tail is the period-1 cycle.  Tails are anchored
at time zero, i.e. step ``t`` uses ``tail[t % len(tail)]``.  A birth-death
chain is a schedule whose matrices :func:`down_probabilities` reads back.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ROW_SUM_TOL = 1e-12  # for kernel rows and initial laws alike


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


def _row_violations(m: np.ndarray, name: str) -> list[str]:
    """``"{name}, row {x}: …"`` for every row x of ``m`` that is not a
    probability law: its first entry that is not finite and nonnegative,
    else its sum when that is more than ``ROW_SUM_TOL`` from 1."""
    bad = ~(np.isfinite(m) & (m >= 0))
    sums, j = m.sum(axis=1), bad.argmax(axis=1)
    rows = np.flatnonzero(bad.any(axis=1) | (np.abs(sums - 1.0) > ROW_SUM_TOL))
    return [f"{name}, row {x}: entry {j[x]} is {float(m[x, j[x]])}; entries must be finite and nonnegative"
            if bad[x, j[x]] else f"{name}, row {x}: sums to {float(sums[x]):.12g}, not 1" for x in rows]


class KernelError(ValueError):
    """A schedule that breaks the kernel rule; ``args`` lists every violation."""

    def __str__(self) -> str:
        return "; ".join(self.args)


def _check_initial(initial, size: int) -> np.ndarray:
    """An initial law on ``size`` states as a float vector; raises ValueError otherwise."""
    init = np.asarray(initial, dtype=float)
    if init.shape != (size,):
        raise ValueError(f"initial vector must have length {size}")
    if (init < 0).any():
        raise ValueError("initial vector has a negative entry")
    if not np.isfinite(init).all():
        raise ValueError(_row_violations(init[None, :], "initial law")[0])
    if abs(float(init.sum()) - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"initial vector sums to {float(init.sum()):.12g}, not 1")
    return init


def _target_mask(space: StateSpace) -> np.ndarray:
    """Whether each state of ``space`` is in its target set."""
    mask = np.zeros(space.size, dtype=bool)
    mask[list(space.target_set)] = True
    return mask


def _target_states(targets: Iterable[int], size: int) -> list[int]:
    """Sorted target states; ValueError unless a nonempty set of integers in
    0..size-1 (a bool, which equals 0 or 1 in a set, is not one)."""
    target = list(targets)
    if not target:
        raise ValueError("target set must be nonempty")
    if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) and 0 <= s < size for s in target):
        raise ValueError("target set must be a subset of {0..size-1}")
    return sorted(set(target))


@dataclass(frozen=True)
class StateSpace:
    """States labeled 0..size-1 together with the nonempty target set."""

    size: int
    target_set: frozenset[int]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("state space needs at least one state")
        object.__setattr__(self, "target_set", frozenset(_target_states(self.target_set, self.size)))


@dataclass(frozen=True, eq=False)
class KernelSchedule:
    """One transition matrix per step: body matrices for t < len(body), then
    the tail cycle, anchored at absolute time: step t uses ``tail[t % len(tail)]``.

    ``phases`` is the body, then one tail cycle, and ``phase(t)`` indexes
    it.  The joint estimator's step loop applies the same rule to its
    sampler's body and cycle tables itself, with no call per step;
    ``TestJointOracle`` checks it against ``at``.

    Construction runs the kernel rule that every sampler and exact law relies
    on: each phase is (n, n), each row finite, nonnegative and summing to 1
    within ``ROW_SUM_TOL``; otherwise :class:`KernelError` lists every violation.
    """

    space: StateSpace
    body: tuple[np.ndarray, ...]
    tail: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(_frozen_array(m) for m in self.body))
        object.__setattr__(self, "tail", tuple(_frozen_array(m) for m in self.tail))
        if not self.tail:
            raise ValueError("periodic tail needs at least one entry")
        object.__setattr__(self, "phases", (*self.body, *self.tail))
        n = self.space.size
        violations = [v for label, m in self.labeled()
                      for v in (_row_violations(m, label) if m.shape == (n, n)
                                else [f"{label}: expected shape {(n, n)}, got {m.shape}"])]
        if violations:
            raise KernelError(*violations)

    def phase(self, t: int) -> int:
        """Index into ``phases`` of the entry governing the step from time t."""
        if t < 0:
            raise ValueError("time index must be nonnegative")
        n = len(self.body)
        return t if t < n else n + t % len(self.tail)

    def at(self, t: int) -> np.ndarray:
        """The matrix governing the step from time t to time t + 1."""
        return self.phases[self.phase(t)]

    def labeled(self) -> tuple[tuple[str, np.ndarray], ...]:
        """All distinct matrices the schedule can produce, with labels."""
        n = len(self.body)
        return tuple((f"body[{i}]" if i < n else f"tail[{i - n}]", m) for i, m in enumerate(self.phases))


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


def birth_death_schedule(cap: int, alphas: Iterable[float | Iterable[float]], *,
                         body: Iterable[float | Iterable[float]] = (),
                         target_set: Iterable[int] = (0,)) -> KernelSchedule:
    """Nearest-neighbour chain on 0..cap with step-dependent down probabilities.

    Interior states step down with probability ``alpha(t, j)`` and up
    otherwise; state 0 stays put instead of stepping down; the cap state
    reflects down with probability one.  ``body`` gives alpha(t, .) for
    t < len(body), then ``alphas`` is the cycle.  Each entry is a scalar,
    the same alpha at every state, or a row of alpha(t, j) for
    j = 0..cap-1 (the cap row is deterministic and carries no parameter).
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    rows = [tuple(np.full(cap, float(a)) if np.isscalar(a) else np.asarray(a, float) for a in entries)
            for entries in (body, alphas)]
    for label, entries in zip(("body", "tail"), rows):
        for i, row in enumerate(entries):
            if row.shape != (cap,):
                raise ValueError(f"{label}[{i}]: expected {cap} down probabilities, got {row.shape}")
            if not ((row > 0) & (row < 1)).all():
                raise ValueError(f"{label}[{i}]: down probabilities must lie strictly in (0, 1)")
    body_kernels, tail_kernels = (tuple(_birth_death_matrix(r, cap) for r in entries) for entries in rows)
    return KernelSchedule(StateSpace(cap + 1, target_set), body_kernels, tail_kernels)


def down_probabilities(schedule: KernelSchedule) -> np.ndarray | None:
    """The (phases, cap) table of down probabilities alpha(phase, j), one row
    per entry of ``phases``, when ``schedule`` is a birth-death chain on
    0..cap with cap >= 2: every phase equals, entry for entry, the matrix
    :func:`birth_death_schedule` builds from the alphas read off it (state
    0's stay and each interior state's down probability), each strictly in
    (0, 1).  Otherwise None.
    """
    cap = schedule.space.size - 1
    if cap < 2:
        return None
    table = np.array([[m[0, 0], *np.diagonal(m, -1)[:-1]] for m in schedule.phases])
    if not ((table > 0) & (table < 1)).all():
        return None
    if not all(np.array_equal(m, _birth_death_matrix(row, cap)) for m, row in zip(schedule.phases, table)):
        return None
    return table
