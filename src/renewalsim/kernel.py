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
from typing import Callable, Iterable

import numpy as np

ROW_SUM_TOL = 1e-12  # for kernel rows and initial laws alike


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


def _row_violations(m: np.ndarray, label: Callable[[int], str]) -> list[tuple[int, str]]:
    """``(i, "{label(i)}, row {x}: …")`` for every row x of every ``m[i]`` that is not
    a probability law, in order: its first entry that is not finite and nonnegative
    (its minimum, NaN if any entry is, is not >= 0, or its sum is not finite),
    else its sum when that is more than ``ROW_SUM_TOL`` from 1."""
    sums = m.sum(axis=-1)
    bad = ~(m.min(axis=-1) >= 0) | ~np.isfinite(sums)
    out = []
    for i, x in zip(*(a.tolist() for a in np.nonzero(bad | (np.abs(sums - 1.0) > ROW_SUM_TOL)))):
        row = m[i, x]
        j = int(np.argmin(np.isfinite(row) & (row >= 0)))
        out.append((i, f"{label(i)}, row {x}: entry {j} is {float(row[j])}; entries must be finite and nonnegative"
                    if bad[i, x] else f"{label(i)}, row {x}: sums to {float(sums[i, x]):.12g}, not 1"))
    return out


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
        raise ValueError(_row_violations(init[None, None], lambda i: "initial law")[0][1])
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


def _labels(n_body: int) -> Callable[[int], str]:
    """Names of a schedule's phases in messages: ``body[i]``, then ``tail[k]``."""
    return lambda i: f"body[{i}]" if i < n_body else f"tail[{i - n_body}]"


def _check_numbers(entries: tuple, label: Callable[[int], str], *, matrices: bool) -> None:
    """TypeError naming the first entry, ``body[i]`` or ``tail[k]``, that holds
    a value other than a number (a string, a bool, None, an object).

    A list entry, a matrix or a row, is first summed in C, which raises at a
    string, None or an object and adds a bool as 0 or 1.  Only an entry that
    fails, or whose total is not a float (ints and bools alone), is walked
    value by value, so a bool among a matrix's floats passes (a bool down
    probability, 0 or 1, is out of range anyway).  Numpy arrays pass.
    """
    total = (lambda m: sum(map(sum, m))) if matrices else sum
    for i, entry in enumerate(entries):
        try:
            if isinstance(entry, list) and isinstance(total(entry), float):
                continue
        except TypeError:
            pass
        pending = [entry]
        while pending:
            v = pending.pop()
            if isinstance(v, (list, tuple)):
                pending.extend(v)
            elif isinstance(v, bool) or not isinstance(v, (numbers.Real, np.ndarray)):
                raise TypeError(f"{label(i)}: entries must be numbers, not {type(v).__name__}")


def _array(entry) -> np.ndarray | None:
    """``entry`` as a float array, or None when its rows differ in length or a row holds a list."""
    try:
        return np.asarray(entry, dtype=float)
    except ValueError:
        return None


def _checked_stack(entries: tuple, shape: tuple[int, ...], label: Callable[[int], str],
                   rule: Callable[[np.ndarray, Callable[[int], str]], list[tuple[int, str]]]) -> np.ndarray:
    """The one reader of chain entries, ``(n, n)`` matrices or ``(cap,)`` α
    rows: ``entries`` copied into one float ``(len(entries), *shape)`` array;
    else KernelError listing, phase by phase, each entry not of ``shape``,
    ragged ones included, and each fault ``rule`` finds in the stack of the
    others, ``(k, message)`` as :func:`_row_violations` gives them.

    TypeError first if an entry holds a value other than a number
    (:func:`_check_numbers`), before numpy would parse a numeric string.
    """
    _check_numbers(entries, label, matrices=len(shape) == 2)
    try:
        stack = np.asarray(entries, dtype=float)
        good = range(len(entries)) if stack.shape == (len(entries), *shape) else None
    except ValueError:  # entries of different shapes
        good = None
    found = []
    if good is None:
        arrays = [_array(entry) for entry in entries]
        good = [i for i, a in enumerate(arrays) if a is not None and a.shape == shape]
        found = [(i, f"{label(i)}: expected shape {shape}, got {'ragged rows' if a is None else a.shape}")
                 for i, a in enumerate(arrays) if a is None or a.shape != shape]
        stack = np.array([arrays[i] for i in good]).reshape(len(good), *shape)
    found += [(good[k], v) for k, v in rule(stack, lambda k: label(good[k]))]
    if found:
        raise KernelError(*(v for _, v in sorted(found, key=lambda pair: pair[0])))
    return stack


def build_bytes(phases: int, size: int) -> int:
    """What building a schedule of ``phases`` dense size x size kernels peaks
    at: two float64 copies of each entry (a birth-death build's stack and
    ``KernelSchedule``'s copy of it; nested lists convert straight into the
    one stack), 64 bytes a row (row reductions, down probabilities), and 256
    bytes a phase and 16 KiB a schedule of Python objects."""
    return phases * (size * (16 * size + 64) + 256) + 2**14


@dataclass(frozen=True, eq=False)
class KernelSchedule:
    """One transition matrix per step: body matrices for t < len(body), then
    the tail cycle, anchored at absolute time: step t uses ``tail[t % len(tail)]``.

    Construction copies the body and one tail cycle, matrices as arrays or
    as nested lists, into ``phases``, one read-only (phases, n, n) float
    array that ``phase(t)`` indexes and whose views ``body`` and ``tail``
    become.  The joint estimator's step loop applies the rule of ``phase``
    itself; ``TestJointOracle`` checks it.

    Construction runs the kernel rule that every sampler and exact law relies
    on, in one pass over the stack: each phase is (n, n), each row finite,
    nonnegative and summing to 1 within ``ROW_SUM_TOL``; otherwise
    :class:`KernelError` lists every violation, phase by phase and row by row.
    """

    space: StateSpace
    body: np.ndarray
    tail: np.ndarray

    def __post_init__(self):
        body, tail = tuple(self.body), tuple(self.tail)
        if not tail:
            raise ValueError("periodic tail needs at least one entry")
        n_body, n = len(body), self.space.size
        phases = _checked_stack(body + tail, (n, n), _labels(n_body), _row_violations)
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "body", phases[:n_body])
        object.__setattr__(self, "tail", phases[n_body:])

    def __reduce__(self):
        """Pickles the stack once, as ``body`` and ``tail`` (a view pickles apart from its base)."""
        return KernelSchedule, (self.space, self.body, self.tail)

    def phase(self, t: int) -> int:
        """Index into ``phases`` of the entry governing the step from time t."""
        if t < 0:
            raise ValueError("time index must be nonnegative")
        n = len(self.body)
        return t if t < n else n + t % len(self.tail)

    def at(self, t: int) -> np.ndarray:
        """The matrix governing the step from time t to time t + 1."""
        return self.phases[self.phase(t)]


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
    KernelError lists every entry, ``body[i]`` or ``tail[k]``, of the wrong
    shape (ragged ones included) or with an alpha outside (0, 1), in phase
    order; ValueError if ``cap < 2`` or for a bad target set, checked first.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    space = StateSpace(cap + 1, target_set)
    body, alphas = tuple(body), tuple(alphas)
    entries = tuple([a] * cap if isinstance(a, numbers.Real) else a for a in body + alphas)
    table = _checked_stack(entries, (cap,), _labels(len(body)), lambda t, label: [
        (k, f"{label(k)}: down probabilities must lie strictly in (0, 1)")
        for k in np.flatnonzero(~((t > 0) & (t < 1)).all(axis=1)).tolist()])
    # j < cap steps up w.p. 1 - alpha(j), an interior j down w.p. alpha(j), 0 stays w.p. alpha(0)
    stack = np.zeros((len(table), cap + 1, cap + 1))
    j = np.arange(cap)
    stack[:, j, j + 1] = 1.0 - table
    stack[:, j[1:], j[:-1]] = table[:, 1:]
    stack[:, 0, 0] = table[:, 0]
    stack[:, cap, cap - 1] = 1.0
    return KernelSchedule(space, stack[:len(body)], stack[len(body):])


def down_probabilities(schedule: KernelSchedule) -> np.ndarray | None:
    """The (phases, cap) table of down probabilities alpha(phase, j), one row
    per entry of ``phases``, when ``schedule`` is a birth-death chain on
    0..cap with cap >= 2: in every phase state 0 reaches only 0 and 1, an
    interior state j only j - 1 and j + 1, and the cap only cap - 1, and each
    alpha (state 0's stay, an interior state's step down) lies strictly in
    (0, 1).  Otherwise None.

    The up entries are not read: the kernel rule, checked when the schedule
    is built, holds each row's sum to 1 within ``ROW_SUM_TOL``.
    """
    cap = schedule.space.size - 1
    if cap < 2:
        return None
    unreached = ~(np.eye(cap + 1, k=-1, dtype=bool) | np.eye(cap + 1, k=1, dtype=bool))
    unreached[0, 0] = False
    if schedule.phases.any(axis=0)[unreached].any():
        return None
    table = np.hstack((schedule.phases[:, :1, 0], np.diagonal(schedule.phases, -1, 1, 2)[:, :-1]))
    return table if ((table > 0) & (table < 1)).all() else None
