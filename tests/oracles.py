"""Independent reference routines that only the tests use.

Each one recomputes, by a different or more direct route, something the
package computes on its hot path: the walk's first-return coefficients by
the binomial series, renewal times and gaps straight from a path, the
first simultaneous renewal as a set intersection, the mass defect of a
distribution table, the joint estimator's meeting times and first hits
drawn one cumulative row and one scalar splitmix64 draw at a time, the
regularity grid by one law step at a time, and the trial-sum table in one
shot over all sums.
"""

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from renewalsim import KernelSchedule, SimulationPlan
from renewalsim.domination import _check_walk_parameter
from renewalsim.exact import DistributionTable
from renewalsim.rng import PHI, mix, splitmix64

MASK64 = (1 << 64) - 1


def first_return_series(p: float, n: int) -> np.ndarray:
    """First-return coefficients via the binomial series of sqrt(1 - 4p(1-p)s^2).

    ``1 - sqrt(1 - u)`` expands with generic half-integer binomial
    coefficients, computed here by their own recurrence; this is the
    independent cross-check for ``first_return_coefficients``.
    """
    _check_walk_parameter(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    u = -4.0 * p * (1.0 - p)
    out = np.zeros(n + 1)
    binom = 1.0  # C(1/2, k), starting at k = 0
    power = 1.0  # u^k
    k = 1
    while 2 * k <= n:
        binom *= (0.5 - (k - 1)) / k
        power *= u
        out[2 * k] = -binom * power
        k += 1
    return out


def renewal_gaps(times: Sequence[int]) -> list[int]:
    """Renewal gaps of renewal times: the first time, then consecutive differences."""
    return [times[0]] + [b - a for a, b in zip(times, times[1:])] if times else []


def extract_renewals(path: Sequence[int], targets: Iterable[int]) -> tuple[list[int], list[int]]:
    """Renewal gaps and cumulative renewal times of one path.

    The first gap is the first hitting time of the target set (zero when
    the path starts inside it); later gaps separate consecutive visits.
    Returns ``([], [])`` when the path never visits the target set.
    """
    target = frozenset(targets)
    times = [t for t, x in enumerate(path) if int(x) in target]
    return renewal_gaps(times), times


def simultaneous_renewal_time(tau1: Sequence[int], tau2: Sequence[int]) -> int | None:
    """First strictly positive time present in both renewal sequences."""
    common = {t for t in tau1 if t > 0} & {t for t in tau2 if t > 0}
    return min(common) if common else None


def mass_defect(table: DistributionTable) -> float:
    """|1 - (total mass + residual)| of a distribution table."""
    return abs(1.0 - (float(table.mass.sum()) + table.residual))


def _draw(cum: Sequence[float], u: float, size: int) -> int:
    """The first state whose cumulative row sum ``cum`` exceeds u, or the
    last state when u is at or above the total of a short row."""
    s = bisect_right(cum, u)
    return s if s < size else size - 1


def joint_renewal_times(plan: SimulationPlan) -> tuple[list[int], list[int], list[int]]:
    """Meeting time and first hit of each chain, per path, -1 where none falls within the horizon.

    Path i reads the counter stream with key ``mix(seed, i)``, draw k being
    the top 53 bits of the scalar ``splitmix64(key + k * PHI)``: draws 0
    and 1 give the initial states of chain 1 and chain 2, draws 2 + 2t and
    3 + 2t their steps from t, each by :func:`_draw` on ``np.cumsum`` of the
    row of ``schedule.at(t)``.  The meeting time is the first step t >= 1
    with both chains in the target set; a first hit counts t = 0.
    """
    targets, n1, n2 = plan.targets, plan.schedule1.space.size, plan.schedule2.space.size
    meeting, hit1, hit2 = [], [], []
    for i in range(plan.n_paths):
        key = mix(plan.master_seed, i)

        def uniform(k):
            return (splitmix64((key + k * PHI) & MASK64) >> 11) / 2**53

        x1 = _draw(np.cumsum(plan.initial1), uniform(0), n1)
        x2 = _draw(np.cumsum(plan.initial2), uniform(1), n2)
        first1 = 0 if x1 in targets else -1
        first2 = 0 if x2 in targets else -1
        met = -1
        for t in range(1, plan.horizon + 1):
            x1 = _draw(np.cumsum(plan.schedule1.at(t - 1)[x1]), uniform(2 * t), n1)
            x2 = _draw(np.cumsum(plan.schedule2.at(t - 1)[x2]), uniform(2 * t + 1), n2)
            if first1 < 0 and x1 in targets:
                first1 = t
            if first2 < 0 and x2 in targets:
                first2 = t
            if x1 in targets and x2 in targets:
                met = t
                break
        meeting.append(met)
        hit1.append(first1)
        hit2.append(first2)
    return meeting, hit1, hit2


def in_target_again(schedule: KernelSchedule, initial, base: int, lag: int) -> float | None:
    """P{X_{base+lag} in C | X_base in C} by stepping the law one kernel at a
    time, normalized at the base time; None when P{X_base in C} = 0."""
    in_target = np.zeros(schedule.space.size, dtype=bool)
    in_target[sorted(schedule.space.target_set)] = True
    law = np.asarray(initial, dtype=float)
    for t in range(base):
        law = law @ schedule.at(t)
    if law[in_target].sum() == 0.0:
        return None
    law = np.where(in_target, law, 0.0) / law[in_target].sum()
    for t in range(base, base + lag):
        law = law @ schedule.at(t)
    return float(law[in_target].sum())


def trial_table(sums: np.ndarray, lengths: np.ndarray, n_paths: int, max_sum: int, max_trials: int) -> np.ndarray:
    """The trial-sum table of ``trial_statistics`` by one formula over all sums at once:
    each sum's trial index from ``arange``/``repeat``, then one ``bincount``."""
    k = np.arange(len(sums)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    keep = (k <= max_trials) & (sums <= max_sum)
    cells = (max_trials + 1) * (max_sum + 1)
    counts = np.bincount(k[keep] * (max_sum + 1) + sums[keep], minlength=cells)
    return counts.reshape(max_trials + 1, max_sum + 1) / n_paths
