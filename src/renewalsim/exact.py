"""Exact distribution propagation on small finite chains.

This is the brute-force oracle the Monte Carlo estimators are checked
against: forward propagation of the state distribution with absorption at
the target set, for the first hitting time of one chain and for the first
simultaneous visit of an independent pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernel import KernelSchedule, StateSpace, check_fits
from .kernel import _check_initial, _target_states


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


@dataclass(frozen=True)
class ExpectationBracket:
    """Honest two-sided enclosure of an expectation.

    ``high`` is infinite when no tail decay rate was supplied and mass was
    left beyond the horizon.
    """

    low: float
    high: float


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
    chain); ``conservation_error`` is the worst defect of absorbed-plus-live
    mass after any block or single step."""

    table: DistributionTable
    tails: np.ndarray
    expectation: ExpectationBracket
    conservation_error: float


BLOCK_STEPS = (64, 32)  # tried in turn, each rounded down to a multiple of the joint period
BLOCK_UNKNOWNS = 512  # at most S |C1| |C2| unknowns in a block's solve
_POINT = KernelSchedule(StateSpace(1, frozenset({0})), (), ([[1.0]],))  # hitting-law partner


@functools.lru_cache(maxsize=4)
def _side(schedule: KernelSchedule, target: tuple[int, ...], start: int, span: int):
    """One chain's read-only block operators, shared by every law on this side
    (keyed on the schedule object).  With K_i = K(start + i), P_r = K_0···K_{r-1}
    and C the target: cols[r] = P_{r+1}[:, C], product = P_span,
    rows[q] = (K_{q+1}···K_{span-1})[C, :], back[r, q] = (K_{q+1}···K_r)[C, C]."""
    n, c = schedule.space.size, len(target)
    product, rows = np.eye(n), np.empty((span * c, n))
    cols, back = np.empty((span, n, c)), np.zeros((span, span, c, c))
    for r in range(span):
        k = schedule.at(start + r)
        rows[:r * c] = rows[:r * c] @ k  # rows C of K_q···K_r, q = 0..r
        rows[r * c:(r + 1) * c] = k[target, :]
        back[r, :r] = rows[c:(r + 1) * c, target].reshape(r, c, c)
        product = product @ k
        cols[r] = product[:, target]
    operators = (cols, product, rows[c:].reshape(span - 1, c, n), back)
    for a in operators:
        a.flags.writeable = False
    return operators


def _block_step(side1, side2, start: int, span: int):
    """``advance(J) -> (J', m)``: ``span`` steps from a time start + k * span.

    The unabsorbed target masses U_r = cols1[r]^T J cols2[r] (one ``lead @ J``
    product, then r-slice by r-slice) and the first meetings h_r (m_r is their
    sum) solve U = (I + G) h, G holding kron(B1^T, B2^T) of the returns
    B = ``back``; (I + G)^-1 holds first-passage probabilities.  J' =
    P1_span^T J P2_span less the meetings carried to the end through ``rows``;
    h, J' >= 0 by clipping.  The side operators come from ``_side``'s cache.
    """
    (cols1, full1, rows1, back1), (cols2, full2, rows2, back2) = (
        _side(schedule, tuple(target), start, span) for schedule, target in (side1, side2))
    n1, c1, c2 = len(full1), cols1.shape[2], cols2.shape[2]
    g = np.einsum("rqai,rqbj->rijqab", back1, back2).reshape(span * c1 * c2, -1)
    inverse = np.linalg.inv(np.eye(len(g)) + g)
    lead, carry = cols1.transpose(0, 2, 1).reshape(-1, n1), rows1.reshape(-1, n1).T
    head = np.ascontiguousarray(full1.T)

    def advance(law):
        u = (lead @ law).reshape(span, c1, -1) @ cols2
        hits = (inverse @ u.reshape(-1)).reshape(span, c1, c2)
        ahead = head @ law @ full2
        ahead -= carry @ np.einsum("qab,qbn->qan", hits[:-1], rows2).reshape(-1, ahead.shape[1])
        return np.maximum(ahead, 0.0, out=ahead), np.maximum(hits, 0.0, out=hits).sum(axis=(1, 2))

    return advance


def _absorb(law: np.ndarray, side1, side2, first: int, horizon: int,
            tail_gamma: float | None) -> HittingResult:
    """Law of the first step n >= ``first`` at which both sides sit in their targets.

    ``law`` is the joint law P{X1 = i, X2 = j} at time 0, stepped as
    ``K1^T @ J @ K2``; a side is a (schedule, sorted target) pair.  Past both
    bodies, blocks of S steps (``_block_step``) share one set of operators.
    S is the first of BLOCK_STEPS, rounded down to a multiple of the joint
    period, with at most BLOCK_UNKNOWNS unknowns S |C1| |C2| and operators
    (S (n1^3 + n2^3)) cheaper than single-stepping past the bodies
    (n1 n2 (n1 + n2) a step), else 0: a joint period above 64 single-steps.
    Single steps run for body steps, the last stretch shorter than S, every
    step if S is 0, and the S steps of a block that keeps under half its
    live mass.  The loop stops when the live law is 0.  The kernels are
    stochastic, since a schedule checks them when it is built.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    # the mass, its suffix sums and one temporary of them span the horizon
    check_fits(3 * 8 * (horizon + 1), f"the hitting-time tables of horizon {horizon}", available=True)
    (schedule1, target1), (schedule2, target2) = side1, side2
    n1, n2 = law.shape
    period = math.lcm(len(schedule1.tail), len(schedule2.tail))
    start = max(len(schedule1.body), len(schedule2.body))
    spans = (steps // period * period for steps in BLOCK_STEPS)
    span = next((s for s in spans if s and s * len(target1) * len(target2) <= BLOCK_UNKNOWNS
                 and s * (n1**3 + n2**3) < (horizon - start) * n1 * n2 * (n1 + n2)), 0)
    block = np.ix_(target1, target2)
    mass = np.zeros(horizon + 1)
    if first == 0:
        mass[0] = law[block].sum()
        law[block] = 0.0
    absorbed, live, conservation_error = mass[0], float(law.sum()), 0.0
    t, advance = 0, None
    while t < horizon and live > 0.0:
        ahead = None
        if span and t >= start and (t - start) % span == 0 and t + span <= horizon:
            advance = advance or _block_step(side1, side2, start, span)
            ahead, hits = advance(law)
            ahead[block] = 0.0
        if ahead is None or (left := float(ahead.sum())) < 0.5 * live:
            ahead = schedule1.at(t).T @ law @ schedule2.at(t)
            hits = np.array([ahead[block].sum()])
            ahead[block] = 0.0
            left = float(ahead.sum())
        law, live = ahead, left
        mass[t + 1:t + 1 + len(hits)] = hits
        t += len(hits)
        absorbed += hits.sum()
        conservation_error = max(conservation_error, abs(1.0 - (absorbed + live)))
    tails = suffix_tails(mass, live)
    bracket = _tail_bracket(float(tails[:-1].sum()), live, tail_gamma)
    return HittingResult(DistributionTable(mass, live), tails, bracket, float(conservation_error))


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
    n = schedule.space.size
    init = _check_initial(initial, n)
    target = _target_states(targets if targets is not None else schedule.space.target_set, n)
    return _absorb(init[:, None].copy(), (schedule, target), (_POINT, [0]), 0, horizon, tail_gamma)


def product_tail(
    schedule1: KernelSchedule,
    schedule2: KernelSchedule,
    initial1,
    initial2,
    targets: Iterable[int] | None = None,
    horizon: int = 1000,
    cap: int = 10_000,
) -> HittingResult:
    """Propagate the joint law of the independent pair with absorption.

    The joint law is the matrix P{X1 = i, X2 = j}, stepped by
    ``K1^T @ J @ K2``.  The pair is absorbed the first time both
    coordinates sit in the target set at the same step t >= 1; the meeting
    time is strictly positive by definition, so both chains starting
    inside the set still yields mass at step 1, not 0.  The expectation
    bracket's upper end is infinite while mass is left at the horizon.
    """
    n1, n2 = schedule1.space.size, schedule2.space.size
    if n1 * n2 > cap:
        raise ValueError(f"product state count {n1 * n2} exceeds cap {cap}")
    if targets is None:
        if schedule1.space.target_set != schedule2.space.target_set:
            raise ValueError("schedules disagree on the target set; pass targets explicitly")
        targets = schedule1.space.target_set
    target = _target_states(targets, min(n1, n2))
    joint = np.outer(_check_initial(initial1, n1), _check_initial(initial2, n2))
    return _absorb(joint, (schedule1, target), (schedule2, target), 1, horizon, None)
