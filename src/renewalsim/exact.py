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

from .kernel import KernelSchedule
from .simulate import _check_initial

MASS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """P{value = n} for n = 0..N plus the unassigned mass beyond N."""

    mass: np.ndarray
    residual: float

    def mass_defect(self) -> float:
        """|1 - (total mass + residual)|; should stay below MASS_TOL."""
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
    if not 0.0 < tail_gamma <= 1.0:
        raise ValueError("tail_gamma must lie in (0, 1]")
    return ExpectationBracket(low, low + residual / tail_gamma)


def _law(mass: np.ndarray, residual: float, tail_gamma: float | None):
    """Table, tails P{value > n} and expectation bracket of a propagated law.

    Tails are the residual plus suffix sums of the mass, never
    ``1 - cumsum(mass)``, so deep tails keep their relative precision and
    the tail at the horizon is exactly the residual.
    """
    tails = residual + np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)
    low = float(tails[:-1].sum())
    return DistributionTable(mass=mass, residual=residual), tails, _tail_bracket(low, residual, tail_gamma)


@dataclass(frozen=True, eq=False)
class HittingResult:
    """Exact law of the first hitting time of the target set."""

    table: DistributionTable
    tails: np.ndarray
    expectation: ExpectationBracket


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
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    init = _check_initial(initial, schedule.space.size)
    target = sorted(targets if targets is not None else schedule.space.target_set)

    mass = np.zeros(horizon + 1)
    q = init.copy()
    mass[0] = q[target].sum()
    q[target] = 0.0
    for t in range(horizon):
        q = q @ schedule.at(t)
        mass[t + 1] = q[target].sum()
        q[target] = 0.0
    return HittingResult(*_law(mass, float(q.sum()), tail_gamma))


@dataclass(frozen=True, eq=False)
class MeetingResult:
    """Exact law of the first simultaneous visit (counted from step 1)."""

    table: DistributionTable
    tails: np.ndarray
    expectation: ExpectationBracket
    conservation_error: float


def product_tail(
    schedule1: KernelSchedule,
    schedule2: KernelSchedule,
    initial1,
    initial2,
    targets: Iterable[int] | None = None,
    horizon: int = 1000,
    cap: int = 10_000,
    tail_gamma: float | None = None,
) -> MeetingResult:
    """Propagate the joint law of the independent pair with absorption.

    The pair is absorbed the first time both coordinates sit in the target
    set at the same step t >= 1; the meeting time is strictly positive by
    definition, so both chains starting inside the set still yields mass
    at step 1, not 0.  ``conservation_error`` tracks the worst per-step
    defect of absorbed-plus-live mass.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n1 = schedule1.space.size
    n2 = schedule2.space.size
    if n1 * n2 > cap:
        raise ValueError(f"product state count {n1 * n2} exceeds cap {cap}")
    if targets is None:
        if schedule1.space.target_set != schedule2.space.target_set:
            raise ValueError("schedules disagree on the target set; pass targets explicitly")
        targets = schedule1.space.target_set
    target = sorted(targets)

    init1 = _check_initial(initial1, n1)
    init2 = _check_initial(initial2, n2)
    joint = np.outer(init1, init2)
    block = np.ix_(target, target)

    mass = np.zeros(horizon + 1)
    absorbed_total = 0.0
    conservation_error = 0.0
    for t in range(1, horizon + 1):
        joint = schedule1.at(t - 1).T @ joint @ schedule2.at(t - 1)
        absorbed = float(joint[block].sum())
        mass[t] = absorbed
        absorbed_total += absorbed
        joint[block] = 0.0
        conservation_error = max(
            conservation_error, abs(1.0 - (absorbed_total + float(joint.sum())))
        )
    return MeetingResult(*_law(mass, float(joint.sum()), tail_gamma), conservation_error)
