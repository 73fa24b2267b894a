"""Certified upper bounds on the expected simultaneous renewal time.

The headline bound combines the expected first hitting times of the two
chains, the envelope head and mass, and the regularity constant:

    m1 + m2 + (n0 * G0 + m) * (1 + gamma) / gamma.

For the nearest-neighbour family two closed-form specializations exist,
one driven by second-moment constants of the dominating walk (the legacy
route) and one by first moments only; this module computes both, checks
the algebraic identity tying them together, and runs the full pipeline
for a birth-death pair.  It returns numbers and objects only; the report
form of each is written by :mod:`renewalsim.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .domination import (
    DominatingSequence,
    RegularityCertificate,
    _check_walk_parameter,
    domination_valid_for,
    regularity_from_floor,
    return_floor,
    walk_dominating_sequence,
)
from .kernel import KernelSchedule, _target_mask, check_fits, down_probabilities
from .simulate import JointRenewalEstimate, SimulationPlan, estimate_joint_renewal


def expectation_bound(
    m1: float, m2: float, n0: int, head: float, mass: float, gamma: float
) -> float:
    """m1 + m2 + (n0 * head + mass) * (1 + gamma) / gamma."""
    exact.check_unit_interval(gamma, "gamma")
    for name, value in (("m1", m1), ("m2", m2), ("n0", n0), ("head", head), ("mass", mass)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    return m1 + m2 + (n0 * head + mass) * (1.0 + gamma) / gamma


def trial_tail_bound(gamma: float, n: int) -> float:
    """(1 - gamma)^n: certified tail of the number of landing trials."""
    exact.check_unit_interval(gamma, "gamma")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (1.0 - gamma) ** n


# paths per chunk of trial_statistics: its per-sum temporaries span one chunk's sums
TRIAL_CHUNK_PATHS = 1024


def trial_statistics(
    estimate: JointRenewalEstimate, max_sum: int, max_trials: int | None = None
) -> np.ndarray:
    """The (max_trials + 1, max_sum + 1) table of P{trial sums hit j at trial k,
    scan still running}, from an estimate whose chains both start in the target set.

    ``table[k, j]`` estimates the probability that the k-th partial sum of
    the trial gaps equals j while the first success has not occurred
    before trial k.  Paths are read ``TRIAL_CHUNK_PATHS`` at a time, so no
    per-sum index array spans all of ``trial_sums``; counts go straight
    into the table.
    """
    if (estimate.first_hit1 != 0).any() or (estimate.first_hit2 != 0).any():
        raise ValueError("trial statistics require both chains to start in the target set")
    if max_trials is None:
        max_trials = int(estimate.trials_to_success.max(initial=0))
    # OverflowError for a max_sum past a machine integer, before any allocation
    width = int(np.int64(max_sum)) + 1
    check_fits(8 * (max_trials + 1) * width, "the trial table")
    table = np.zeros((max_trials + 1, width))
    cells = table.reshape(-1)
    sums, lengths = estimate.trial_sums, estimate.trial_lengths
    end = 0
    for a in range(0, len(lengths), TRIAL_CHUNK_PATHS):
        runs = lengths[a:a + TRIAL_CHUNK_PATHS]
        begin, end = end, end + int(runs.sum())
        chunk = sums[begin:end]
        # trial k of each sum: its position within its path's run
        k = np.arange(len(chunk)) - np.repeat(np.cumsum(runs) - runs, runs)
        keep = (k <= max_trials) & (chunk <= max_sum)
        counts = np.bincount(k[keep] * width + chunk[keep])
        cells[: len(counts)] += counts
    table /= estimate.n_paths
    return table


def meeting_tail_envelope(
    envelope: DominatingSequence, n0: int, table: np.ndarray, length: int
) -> np.ndarray:
    """Double-sum part of the meeting-time tail envelope, from the table of
    :func:`trial_statistics`.

    Entry n is ``sum_j envelope[n - j - n0] * sum_{k<=j} table[k, j]``
    with negative envelope indices resolving to the head value.  When
    every trial gap is a renewal gap, this bounds the part of the tail
    decomposition after the first landing, P(S_0 <= n < S_tau).  It is not
    a dominating sequence for the trial-sum tail on its own: the first
    term of the decomposition, P(S_0 > n), is left out (so entry 0 is
    zero) and is bounded by ``envelope[n - n0]``, which callers add.
    """
    if length >= envelope.length + n0:
        raise ValueError("envelope too short for the requested length")
    return np.convolve(_shifted(envelope, n0, length), table.sum(axis=0))[: length + 1]


def _shifted(envelope: DominatingSequence, n0: int, length: int) -> np.ndarray:
    """``envelope[n - n0]`` for n = 0..length, negative indices at the head value."""
    return envelope.values[np.maximum(np.arange(length + 1) - n0, 0)]


def walk_moment1(p: float) -> float:
    """First-moment constant of the dominating walk: 2/(2p-1) + 1."""
    _check_walk_parameter(p)
    return 2.0 / (2.0 * p - 1.0) + 1.0


def walk_moment2(p: float) -> float:
    """Second-moment constant of the dominating walk, exactly as printed.

    The middle term 8(1-p)/(1-4p) is negative on the valid p range; the
    constant is reproduced verbatim because the comparison identity
    depends on it.
    """
    _check_walk_parameter(p)
    return (2.0 * p - 1.0) ** -1 * (2.0 + 8.0 * (1.0 - p) / (1.0 - 4.0 * p)) + 2.0 / (
        2.0 * p - 1.0
    ) + 1.0


def bound_via_second_moment(p: float, gamma: float) -> tuple[float, float, float]:
    """Legacy bound moment2/gamma + moment1/gamma^2; returns (bound, m1, m2)."""
    exact.check_unit_interval(gamma, "gamma")
    if gamma**2 == 0.0:
        raise ValueError(f"gamma = {gamma:.6g} is too small: gamma^2 underflows to 0")
    m1 = walk_moment1(p)
    m2 = walk_moment2(p)
    return m2 / gamma + m1 / gamma**2, m1, m2


def bound_via_first_moment(p: float, gamma: float) -> float:
    """First-moment bound moment1 * (1 + gamma) / gamma."""
    exact.check_unit_interval(gamma, "gamma")
    return walk_moment1(p) * (1.0 + gamma) / gamma


@dataclass(frozen=True)
class BoundComparison:
    """Both closed-form bounds plus the identity tying them together."""

    p: float
    gamma: float
    second_moment_bound: float
    first_moment_bound: float
    walk_moment1: float
    walk_moment2: float
    identity_residual: float
    verdict: str


def compare_bounds(p: float, gamma: float) -> BoundComparison:
    """Evaluate both bounds and the identity
    first = (second - moment2/gamma) * (1 + gamma) * gamma.

    The verdict that the first-moment bound is tighter is only issued when
    gamma * (1 + gamma) < 1, i.e. gamma below (sqrt(5) - 1) / 2.
    """
    e1, m1, m2 = bound_via_second_moment(p, gamma)
    e2 = bound_via_first_moment(p, gamma)
    residual = abs(e2 - (e1 - m2 / gamma) * (1.0 + gamma) * gamma)
    verdict = "first_moment_tighter" if gamma * (1.0 + gamma) < 1.0 else "withheld"
    return BoundComparison(
        p=p,
        gamma=gamma,
        second_moment_bound=e1,
        first_moment_bound=e2,
        walk_moment1=m1,
        walk_moment2=m2,
        identity_residual=residual,
        verdict=verdict,
    )


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All inputs and outputs of the full bound pipeline; ``comparison`` holds p, and
    ``cap_mass`` each chain's probability of touching its cap state within the horizon."""

    floor: float
    certificate: RegularityCertificate
    envelope: DominatingSequence
    mean_hit1: exact.ExpectationBracket
    mean_hit2: exact.ExpectationBracket
    bound: float
    comparison: BoundComparison
    mc: JointRenewalEstimate
    tail_envelope: np.ndarray | None
    bound_holds: bool
    cap_mass: tuple[float, float]


def _analytic_floor(
    schedule1: KernelSchedule, schedule2: KernelSchedule, p: float, mu_hat: float | None, *, envelope: bool
) -> tuple[float, RegularityCertificate]:
    """(floor, certificate) of a birth-death pair with target set {0}, where
    the floor formula was derived; ValueError otherwise.

    The floor is the inf of state 0's stay probability on either chain.  The
    certificate's mean-bound exponent is ``mu_hat`` when given, else the
    walk's first-moment constant.  Where the walk's envelope or exponent is
    in use, every down probability of both chains must be at least p.
    """
    tables = down_probabilities(schedule1), down_probabilities(schedule2)
    if tables[0] is None or tables[1] is None:
        raise ValueError("analytic regularity needs birth-death chains on both sides")
    if schedule1.space.target_set != {0} or schedule2.space.target_set != {0}:
        raise ValueError("analytic regularity needs target set {0}")
    floor = return_floor(*(float(table[:, 0].min()) for table in tables))
    certificate = regularity_from_floor(floor, walk_moment1(p) if mu_hat is None else mu_hat)
    inf_alpha = min(float(table.min()) for table in tables)
    if (envelope or mu_hat is None) and not domination_valid_for(p, inf_alpha):
        raise ValueError(f"walk parameter p={p} exceeds the chains' inf alpha={inf_alpha:.6g}; "
                         "the envelope does not apply")
    return floor, certificate


def analytic_certificate(
    schedule1: KernelSchedule, schedule2: KernelSchedule, p: float, mu_hat: float | None = None
) -> RegularityCertificate:
    """Certificate from the floor stay probabilities of a birth-death pair with target set {0}."""
    return _analytic_floor(schedule1, schedule2, p, mu_hat, envelope=False)[1]


def full_report(
    plan: SimulationPlan,
    *,
    p: float,
    series_len: int = 2000,
    mu_hat: float | None = None,
    workers: int = 1,
    tail_len: int = 200,
) -> BoundReport:
    """Run the whole pipeline on a plan of a birth-death pair with target set {0}.

    Rejects the plan before any simulation when a down probability of
    either chain, at any step and state, is below the walk parameter, and
    when both chains start in the target set and ``tail_len`` exceeds
    ``series_len`` (plus n0): their meeting-tail envelope needs the walk
    envelope at every lag up to ``tail_len``.  The
    mean-bound exponent defaults to the walk's first-moment constant and can
    be overridden with ``mu_hat``.
    """
    schedule1, schedule2, initial1, initial2 = plan.schedule1, plan.schedule2, plan.initial1, plan.initial2
    floor, certificate = _analytic_floor(schedule1, schedule2, p, mu_hat, envelope=True)

    envelope = walk_dominating_sequence(p, series_len)
    starts_in_target = _starts_in_target(plan)
    # np.int64: a tail_len past a machine integer is an OverflowError, as in trial_statistics
    if starts_in_target and np.int64(tail_len) >= envelope.length + certificate.n0:
        raise ValueError(f"tail_len {tail_len} exceeds series_len {series_len}: the tail envelope "
                         "needs the dominating sequence up to lag tail_len")
    exact_h = max(plan.horizon, 2000)
    hit1, hit2 = (exact.hitting_time_distribution(schedule, initial, horizon=exact_h, tail_gamma=certificate.gamma)
                  for schedule, initial in ((schedule1, initial1), (schedule2, initial2)))

    mc = estimate_joint_renewal(plan, workers=workers, tail_len=tail_len, n0=certificate.n0)

    cap_mass = tuple(
        1.0 - exact.hitting_time_distribution(
            schedule, initial, targets=(schedule.space.size - 1,), horizon=plan.horizon
        ).table.residual
        for schedule, initial in ((schedule1, initial1), (schedule2, initial2))
    )

    tail_env = None
    if starts_in_target:
        table = trial_statistics(mc, max_sum=tail_len)
        tail_env = meeting_tail_envelope(envelope, certificate.n0, table, tail_len)
        # first-gap term of the decomposition: P(S_0 > n) <= envelope[n - n0]
        tail_env += _shifted(envelope, certificate.n0, tail_len)

    bound = expectation_bound(hit1.expectation.high, hit2.expectation.high, certificate.n0, envelope.head,
                              envelope.total_mass, certificate.gamma)
    comparison = compare_bounds(p, certificate.gamma)
    bound_holds = mc.mean - 3.0 * mc.se <= bound

    return BoundReport(
        floor=floor,
        certificate=certificate,
        envelope=envelope,
        mean_hit1=hit1.expectation,
        mean_hit2=hit2.expectation,
        bound=bound,
        comparison=comparison,
        mc=mc,
        tail_envelope=tail_env,
        bound_holds=bound_holds,
        cap_mass=cap_mass,
    )


def _starts_in_target(plan: SimulationPlan) -> bool:
    in1 = float(plan.initial1[_target_mask(plan.schedule1.space)].sum())
    in2 = float(plan.initial2[_target_mask(plan.schedule2.space)].sum())
    return abs(in1 - 1.0) < 1e-12 and abs(in2 - 1.0) < 1e-12
