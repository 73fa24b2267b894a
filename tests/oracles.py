"""Independent reference routines that only the tests use.

Each one recomputes, by a different or more direct route, something the
package computes on its hot path: the walk's first-return coefficients by
the binomial series, renewal times and gaps straight from a path, the
first simultaneous renewal as a set intersection, the mass defect of a
distribution table, the batch sampler's paths and the joint estimator's
meeting times and first hits drawn one cumulative row and one scalar
splitmix64 draw at a time, the estimator's renewal lists stepped to the
horizon, the landing-trial scan by its definition, the regularity grid by
one law step at a time, and the trial-sum table in one shot over all sums.
"""

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from renewalsim import KernelSchedule, SimulationPlan, TrialSequence
from renewalsim.domination import _check_walk_parameter
from renewalsim.exact import DistributionTable
from renewalsim.rng import PHI, mix, splitmix64, uniforms

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


def _uniform(key: int, k: int) -> float:
    """Draw k of the counter stream with key ``key``: the top 53 bits of the scalar ``splitmix64``."""
    return (splitmix64((key + k * PHI) & MASK64) >> 11) / 2**53


def counter_paths(schedule: KernelSchedule, initial, seed: int, n_paths: int, steps: int) -> list[list[int]]:
    """X_0..X_steps of paths 0..n_paths-1, path i on the counter stream with key
    ``mix(seed, i)``: draw 0 by :func:`_draw` on ``np.cumsum(initial)``, then
    draw t + 1 on ``np.cumsum`` of the row ``schedule.at(t)[x]`` for the step from t."""
    size = schedule.space.size
    out = []
    for i in range(n_paths):
        key = mix(seed, i)
        path = [_draw(np.cumsum(initial), _uniform(key, 0), size)]
        for t in range(steps):
            path.append(_draw(np.cumsum(schedule.at(t)[path[-1]]), _uniform(key, t + 1), size))
        out.append(path)
    return out


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
        x1 = _draw(np.cumsum(plan.initial1), _uniform(key, 0), n1)
        x2 = _draw(np.cumsum(plan.initial2), _uniform(key, 1), n2)
        first1 = 0 if x1 in targets else -1
        first2 = 0 if x2 in targets else -1
        met = -1
        for t in range(1, plan.horizon + 1):
            x1 = _draw(np.cumsum(plan.schedule1.at(t - 1)[x1]), _uniform(key, 2 * t), n1)
            x2 = _draw(np.cumsum(plan.schedule2.at(t - 1)[x2]), _uniform(key, 2 * t + 1), n2)
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


def landing_trials(tau1: Sequence[int], tau2: Sequence[int], n0: int, scan: str) -> TrialSequence:
    """``trial_sequence(tau1, tau2, n0, scan)``, one full scan, written out from its definition.

    Trial 0 lands on chain 1's first renewal past index 0 that exceeds n0.
    Trial k >= 1 lands on the first entry of the other chain's sequence
    that equals the last landing (a success, which ends the scan) or
    exceeds it by more than n0: from the last landed index for the printed
    reading, from the start of the sequence for the time reading.
    """
    start = next((j for j in range(1, len(tau1)) if tau1[j] > n0), None)
    if start is None:
        return TrialSequence((), (), None)
    indices, sums = [start], [tau1[start]]
    k = 1
    while True:
        seq, anchor = (tau1, tau2)[k % 2], sums[-1]
        first = indices[-1] if scan == "printed" else 0
        j = next((j for j in range(first, len(seq)) if seq[j] == anchor or seq[j] > anchor + n0), None)
        if j is None:
            return TrialSequence(tuple(indices), tuple(sums), None)
        indices.append(j)
        sums.append(seq[j])
        if seq[j] == anchor:
            return TrialSequence(tuple(indices), tuple(sums), k)
        k += 1


def joint_renewal_paths(
    plan: SimulationPlan, n0: int = 0, scan: str = "printed"
) -> list[tuple[list[int], list[int], int, TrialSequence]]:
    """Per path ``(renewals1, renewals2, meeting, trials)``: both chains'
    renewal times up to the horizon, the meeting time (-1 where none falls
    within it) and :func:`landing_trials` on the two renewal lists, one
    full scan with no resume.

    Every path steps to the horizon on the streams of
    :func:`joint_renewal_times`, all paths at once: chain c (0 or 1) takes
    draw 2k + c of each key from ``uniforms``, k = 0 for its initial state
    and k = t + 1 for its step from t, and moves to the number of its row's
    ``np.cumsum`` values at or below the draw, capped at the last state.
    """
    keys = np.array([mix(plan.master_seed, i) for i in range(plan.n_paths)], dtype=np.uint64)
    visits = []
    for c, (schedule, initial) in enumerate(((plan.schedule1, plan.initial1), (plan.schedule2, plan.initial2))):
        in_target = np.isin(np.arange(schedule.space.size), sorted(plan.targets))
        rows, x = np.cumsum(initial)[None, :], np.zeros(plan.n_paths, dtype=np.int64)
        seen = []
        for k in range(plan.horizon + 1):
            x = np.minimum((rows[x] <= uniforms(keys, 2 * k + c)[:, None]).sum(axis=1), schedule.space.size - 1)
            seen.append(in_target[x])
            rows = np.cumsum(schedule.at(k), axis=1)
        visits.append(np.array(seen))
    out = []
    for i in range(plan.n_paths):
        r1, r2 = (np.flatnonzero(v[:, i]).tolist() for v in visits)
        meeting = simultaneous_renewal_time(r1, r2)
        out.append((r1, r2, -1 if meeting is None else meeting, landing_trials(r1, r2, n0, scan)))
    return out


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
