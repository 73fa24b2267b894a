"""Exact distribution propagation on small finite chains.

This is the brute-force oracle the Monte Carlo estimators are checked
against: forward propagation of the state distribution with absorption at
the target set, for the first hitting time of one chain and for the first
simultaneous visit of an independent pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernel import KernelSchedule, _check_initial


def check_unit_interval(value: float, name: str) -> None:
    """Reject a decay rate or regularity constant outside (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1]")


def suffix_tails(mass: np.ndarray, residual) -> np.ndarray:
    """P{value > n} for n = 0..len(mass) - 1, given the mass beyond the last entry.

    Suffix sums, never ``1 - cumsum(mass)``: deep tails keep their relative
    precision, the last tail is exactly the residual, and counts stay exact.
    """
    return residual + np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """P{value = n} for n = 0..N plus the unassigned mass beyond N."""

    mass: np.ndarray
    residual: float

    def mass_defect(self) -> float:
        """|1 - (total mass + residual)|."""
        return abs(1.0 - (float(self.mass.sum()) + self.residual))


@dataclass(frozen=True)
class ExpectationBracket:
    """Honest two-sided enclosure of an expectation.

    ``high`` is infinite when no tail decay rate was supplied and mass was
    left beyond the horizon.
    """

    low: float
    high: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.high)


def _tail_bracket(low: float, residual: float, tail_gamma: float | None) -> ExpectationBracket:
    if residual <= 0.0:
        return ExpectationBracket(low, low)
    if tail_gamma is None:
        return ExpectationBracket(low, math.inf)
    check_unit_interval(tail_gamma, "tail_gamma")
    return ExpectationBracket(low, low + residual / tail_gamma)


@dataclass(frozen=True, eq=False)
class HittingResult:
    """Exact law of a first hitting time (the meeting time for the product
    chain); ``conservation_error`` is the worst per-step defect of
    absorbed-plus-live mass."""

    table: DistributionTable
    tails: np.ndarray
    expectation: ExpectationBracket
    conservation_error: float


def _absorb(law: np.ndarray, step, target: list[int], first: int, horizon: int,
            tail_gamma: float | None) -> HittingResult:
    """Law of the first step n >= ``first`` at which the propagated law sits on ``target``.

    ``law`` is the state law at time 0 (a vector, or the product chain's
    matrix) and is absorbed in place; ``step(t, law)`` returns the law one
    step after time t, and ``target`` holds flat indices into the law.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    target = np.asarray(target, dtype=np.intp)
    mass = np.zeros(horizon + 1)
    absorbed = conservation_error = 0.0
    for n in range(horizon + 1):
        if n:
            law = step(n - 1, law)
        if n < first:
            continue
        flat = law.reshape(-1)
        hit = float(flat[target].sum())
        flat[target] = 0.0
        mass[n] = hit
        absorbed += hit
        conservation_error = max(conservation_error, abs(1.0 - (absorbed + float(law.sum()))))
    residual = float(law.sum())
    tails = suffix_tails(mass, residual)
    bracket = _tail_bracket(float(tails[:-1].sum()), residual, tail_gamma)
    return HittingResult(DistributionTable(mass, residual), tails, bracket, conservation_error)


def hitting_time_distribution(
    schedule: KernelSchedule,
    initial,
    targets: Iterable[int] | None = None,
    horizon: int = 1000,
    tail_gamma: float | None = None,
) -> HittingResult:
    """Propagate the state law with absorption at the target set.

    ``table.mass[n]`` is the probability the first visit happens at
    exactly step n (n = 0 counts starting inside the set); ``residual``
    is the mass not absorbed by the horizon.  The expectation bracket's
    lower end is the truncated tail sum; the upper end adds
    ``residual / tail_gamma`` when a geometric decay rate is supplied
    (the caller asserts that P{not hit within k more steps} decays like
    ``(1 - tail_gamma)^k``) and is infinite otherwise.
    """
    init = _check_initial(initial, schedule.space.size)
    target = sorted(targets if targets is not None else schedule.space.target_set)
    return _absorb(init.copy(), lambda t, q: q @ schedule.at(t), target, 0, horizon, tail_gamma)


def product_tail(
    schedule1: KernelSchedule,
    schedule2: KernelSchedule,
    initial1,
    initial2,
    targets: Iterable[int] | None = None,
    horizon: int = 1000,
    cap: int = 10_000,
    tail_gamma: float | None = None,
) -> HittingResult:
    """Propagate the joint law of the independent pair with absorption.

    The joint law is the matrix P{X1 = i, X2 = j}, stepped by
    ``K1^T @ J @ K2``.  The pair is absorbed the first time both
    coordinates sit in the target set at the same step t >= 1; the meeting
    time is strictly positive by definition, so both chains starting
    inside the set still yields mass at step 1, not 0.
    """
    n1 = schedule1.space.size
    n2 = schedule2.space.size
    if n1 * n2 > cap:
        raise ValueError(f"product state count {n1 * n2} exceeds cap {cap}")
    if targets is None:
        if schedule1.space.target_set != schedule2.space.target_set:
            raise ValueError("schedules disagree on the target set; pass targets explicitly")
        targets = schedule1.space.target_set
    target = sorted(targets)
    block = [i * n2 + j for i in target for j in target]

    joint = np.outer(_check_initial(initial1, n1), _check_initial(initial2, n2))
    return _absorb(
        joint, lambda t, j: schedule1.at(t).T @ j @ schedule2.at(t), block, 1, horizon, tail_gamma
    )
