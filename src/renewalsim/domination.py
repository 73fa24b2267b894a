"""Dominating tail sequences and the regularity constant.

Two validity conditions underpin the expectation bound:

* an envelope condition: a nonincreasing summable sequence must dominate
  every conditional renewal tail of both chains, uniformly over the start
  time and the start state inside the target set;
* a regularity condition: a constant ``gamma > 0`` such that a chain seen
  in the target set is found there again at any later lag with
  probability at least ``gamma`` (periodic chains fail this).

For nearest-neighbour chains the envelope comes from a +-1 random walk
with down probability ``p > 1/2``; this module computes the walk's
first-return coefficients, builds the envelope, and provides Monte Carlo
checkers for both conditions on arbitrary schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import KernelSchedule
from .rng import stream_keys, uniforms
from .simulate import _InverseCdf, _Sampler


def _check_walk_parameter(p: float) -> None:
    if not 0.5 < p < 1.0:
        raise ValueError(f"walk parameter p must lie in (0.5, 1), got {p}")


def first_return_coefficients(p: float, n: int) -> np.ndarray:
    """First-return probabilities of a +-1 walk with down probability p.

    Entry k is the probability that the unrestricted walk first returns
    to its starting level at step k: zero for odd k, and
    ``C(2k, k) / (2k - 1) * (p(1-p))^k`` at step 2k, evaluated through the
    stable term ratio ``2(2k-1) p(1-p) / (k+1)``.  For p > 1/2 the law is
    defective: the total mass is 2(1-p), not 1.
    """
    _check_walk_parameter(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = p * (1.0 - p)
    out = np.zeros(n + 1)
    term = 2.0 * x
    k = 1
    while 2 * k <= n:
        out[2 * k] = term
        term *= 2.0 * (2 * k - 1) * x / (k + 1)
        k += 1
    return out


def first_return_series(p: float, n: int) -> np.ndarray:
    """Same coefficients via the binomial series of sqrt(1 - 4p(1-p)s^2).

    ``1 - sqrt(1 - u)`` expands with generic half-integer binomial
    coefficients, computed here by their own recurrence; this is the
    independent cross-check for :func:`first_return_coefficients`.
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


def walk_return_law(p: float, n: int) -> np.ndarray:
    """Unit-mass return-time law of the walk reflected at its floor.

    From the floor the reflected walk steps up and must first-passage back
    down, so its return time is 1 + (a passage time), always even, and
    almost surely finite for p > 1/2.  Numerically this equals the
    first-return coefficients normalized by their total mass 2(1-p).
    """
    return first_return_coefficients(p, n) / (2.0 * (1.0 - p))


@dataclass(frozen=True, eq=False)
class DominatingSequence:
    """A nonincreasing, nonnegative envelope for conditional renewal tails.

    ``values[n]`` bounds every conditional renewal tail at lag n; indices
    below zero resolve to ``values[0]``.  ``head_mass`` is the sum over
    the stored range and ``tail_bound`` a certified bound on the rest
    (``None`` when no finite bound is available, in which case the total
    mass is reported as infinity).
    """

    values: np.ndarray
    head_mass: float
    tail_bound: float | None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if (vals < 0).any():
            raise ValueError("envelope values must be nonnegative")
        if (np.diff(vals) > 1e-15).any():
            raise ValueError("envelope values must be nonincreasing")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def at(self, n: int) -> float:
        """Envelope value at lag n; negative lags resolve to the head value."""
        if n < 0:
            return float(self.values[0])
        return float(self.values[n])

    @property
    def head(self) -> float:
        return float(self.values[0])

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def total_mass(self) -> float:
        if self.tail_bound is None:
            return math.inf
        return self.head_mass + self.tail_bound


def walk_dominating_sequence(p: float, n: int) -> DominatingSequence:
    """Envelope built from the walk's unit-mass return law.

    ``values[k] = (mass of the return law beyond lag k) / p``; the head
    value is exactly 1/p.  Because the law's pairwise term ratio is below
    ``4p(1-p) < 1``, the mass beyond the stored range decays geometrically
    and the sequence carries a certified finite tail bound.

    The masses are suffix sums of the law plus a bound on its mass past
    lag n, so deep values keep full relative precision and still dominate
    (``1 - cumsum`` would cancel to a rounding floor).
    """
    _check_walk_parameter(p)
    if n < 2:
        raise ValueError("n must be at least 2")
    law = walk_return_law(p, n)
    r = 4.0 * p * (1.0 - p)
    # The mass past lag n is at most the geometric series of law[j + 2] <=
    # r * law[j], and at most one minus the stored mass, plus its rounding.
    beyond = min(law[n - n % 2] * r / (1.0 - r), 1.0 - law.sum() + n * np.finfo(float).eps)
    tail_mass = np.append(np.cumsum(law[:0:-1])[::-1], 0.0) + beyond
    tail_mass[:2] = 1.0  # unit mass, and no return before lag 2
    values = tail_mass / p
    head_mass = float(values.sum())
    # G_{k+2} <= r * G_k, so the sum beyond index n is geometrically small.
    tail_bound = float((values[n - 1] + values[n]) * r / (1.0 - r))
    return DominatingSequence(values=values, head_mass=head_mass, tail_bound=tail_bound)


def domination_valid_for(p: float, alpha_sup_product: float) -> bool:
    """Whether the walk envelope applies: p(1-p) must dominate the chains'
    worst per-step product sup alpha(1-alpha)."""
    _check_walk_parameter(p)
    if not 0.0 < alpha_sup_product <= 0.25:
        raise ValueError("alpha_sup_product must lie in (0, 1/4]")
    return p * (1.0 - p) >= alpha_sup_product


def _target_mask(schedule: KernelSchedule) -> np.ndarray:
    mask = np.zeros(schedule.space.size, dtype=bool)
    mask[sorted(schedule.space.target_set)] = True
    return mask


@dataclass(frozen=True, eq=False)
class RenewalTailSurface:
    """Empirical conditional renewal tails over a (start time, lag) grid.

    ``tails[i, n]`` is the estimated probability, maximized over the start
    states, that a renewal observed at ``start_times[i]`` is not followed
    by another one within n steps; ``se`` carries the binomial standard
    error of the maximizing state.
    """

    start_times: tuple[int, ...]
    start_states: tuple[int, ...]
    max_lag: int
    n_paths: int
    tails: np.ndarray
    se: np.ndarray
    per_state_tails: np.ndarray


def estimate_renewal_tails(
    schedule: KernelSchedule,
    start_times: Sequence[int],
    start_states: Sequence[int],
    max_lag: int,
    n_paths: int,
    seed: int,
) -> RenewalTailSurface:
    """Monte Carlo surface of conditional renewal tails.

    For each grid point the chain is planted in the target set and run
    until its next visit (or past ``max_lag``, which is all the tail curve
    needs).  Streams are derived per (grid point, path), so the surface is
    independent of evaluation order.
    """
    targets = schedule.space.target_set
    states = tuple(start_states)
    if not states or not set(states) <= targets:
        raise ValueError("start states must be a nonempty subset of the target set")
    times = tuple(start_times)
    if not times:
        raise ValueError("start times must be nonempty")
    if min(times) < 0:
        raise ValueError("start times must be nonnegative")

    sampler = _Sampler(schedule)
    in_target = _target_mask(schedule)
    per_state = np.zeros((len(times), len(states), max_lag + 1))
    for ti, t0 in enumerate(times):
        for xi, x0 in enumerate(states):
            # x holds the paths not yet back in the target set; path i
            # draws from stream (ti, xi, i)
            keys = stream_keys(seed, ti, xi, count=n_paths)
            x = np.full(len(keys), x0)
            exceed = np.zeros(max_lag + 1)
            for gap in range(max_lag + 1):
                if not len(x):
                    break
                exceed[gap] = len(x)
                x = sampler.draw(t0 + gap, x, uniforms(keys, gap))
                away = ~in_target[x]
                x, keys = x[away], keys[away]
            per_state[ti, xi] = exceed / n_paths

    tails = per_state.max(axis=1)
    arg = per_state.argmax(axis=1)
    se_all = np.sqrt(per_state * (1.0 - per_state) / n_paths)
    se = np.take_along_axis(se_all, arg[:, None, :], axis=1)[:, 0, :]
    return RenewalTailSurface(
        start_times=times,
        start_states=states,
        max_lag=max_lag,
        n_paths=n_paths,
        tails=tails,
        se=se,
        per_state_tails=per_state,
    )


@dataclass(frozen=True)
class DominationFlag:
    start_time: int
    lag: int
    estimate: float
    se: float
    bound: float


@dataclass(frozen=True)
class DominationReport:
    """Outcome of checking an envelope against an empirical tail surface."""

    flags: tuple[DominationFlag, ...]
    checked_lags: int

    @property
    def passed(self) -> bool:
        return not self.flags


def check_domination(surface: RenewalTailSurface, envelope: DominatingSequence) -> DominationReport:
    """Flag every grid point whose tail estimate exceeds the envelope by
    more than three standard errors."""
    lags = min(surface.max_lag, envelope.length - 1)
    flags = []
    for ti, t0 in enumerate(surface.start_times):
        for lag in range(lags + 1):
            est = float(surface.tails[ti, lag])
            se = float(surface.se[ti, lag])
            bound = envelope.at(lag)
            if est - 3.0 * se > bound:
                flags.append(DominationFlag(t0, lag, est, se, bound))
    return DominationReport(flags=tuple(flags), checked_lags=lags)


def return_floor(alpha_inf: float, beta_inf: float) -> float:
    """Worst-case stay probability at the floor state across both chains.

    Rejects nonpositive inputs: the construction needs the floor to be
    bounded away from zero.
    """
    for value in (alpha_inf, beta_inf):
        if not 0.0 < value < 1.0:
            raise ValueError(f"floor probabilities must lie in (0, 1), got {value}")
    return min(alpha_inf, beta_inf)


@dataclass(frozen=True)
class AnalyticProvenance:
    floor: float
    mean_bound: float


@dataclass(frozen=True)
class EmpiricalProvenance:
    base_times: tuple[int, ...]
    lags: tuple[int, ...]
    n_paths: int
    min_estimate: float


@dataclass(frozen=True)
class RegularityCertificate:
    """A certified uniform lower bound on later in-target probability."""

    gamma: float
    n0: int
    provenance: AnalyticProvenance | EmpiricalProvenance

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.n0 < 0:
            raise ValueError("n0 must be nonnegative")


def regularity_from_floor(floor: float, mean_bound: float) -> RegularityCertificate:
    """Analytic certificate ``gamma = floor ** (mean_bound / floor)`` with n0 = 0.

    ``floor`` is the uniform lower bound on the one-step stay probability
    at the floor state and ``mean_bound`` a first-moment constant of the
    dominating walk (callers usually pass ``walk_moment1(p)``).
    """
    if not 0.0 < floor <= 1.0:
        raise ValueError("floor must lie in (0, 1]")
    if mean_bound < 1.0:
        raise ValueError("mean_bound must be at least 1")
    gamma = floor ** (mean_bound / floor)
    return RegularityCertificate(
        gamma=gamma, n0=0, provenance=AnalyticProvenance(floor=floor, mean_bound=mean_bound)
    )


@dataclass(frozen=True)
class RegularityPoint:
    base_time: int
    lag: int
    estimate: float
    se: float
    n_conditioned: int

    @property
    def observed(self) -> bool:
        return self.n_conditioned > 0


@dataclass(frozen=True)
class RegularityScan:
    """Grid of conditional in-target probabilities and the resulting bound.

    ``gamma_hat`` is the minimum over observed grid points of the estimate
    minus three standard errors (conservative).  Grid points whose
    conditioning event never occurred are kept and flagged, never skipped.
    """

    points: tuple[RegularityPoint, ...]
    n0: int
    n_paths: int
    gamma_hat: float

    @property
    def flagged(self) -> tuple[RegularityPoint, ...]:
        return tuple(p for p in self.points if not p.observed)

    def certificate(self) -> RegularityCertificate | None:
        """Empirical certificate, or None when the scan is consistent with
        gamma = 0 (for example on periodic chains)."""
        if self.gamma_hat <= 0.0:
            return None
        return RegularityCertificate(
            gamma=self.gamma_hat,
            n0=self.n0,
            provenance=EmpiricalProvenance(
                base_times=tuple(p.base_time for p in self.points if p.lag == 0) or (),
                lags=tuple(sorted({p.lag for p in self.points})),
                n_paths=self.n_paths,
                min_estimate=self.gamma_hat,
            ),
        )


def estimate_regularity(
    schedule: KernelSchedule,
    n0: int,
    base_times: Sequence[int],
    lags: Sequence[int],
    n_paths: int,
    seed: int,
    initial=None,
    n0_applies_to: str = "base",
) -> RegularityScan:
    """Estimate P{in target at base + lag | in target at base} over a grid.

    Base times below ``n0`` are excluded (the printed reading); pass
    ``n0_applies_to="lag"`` for the alternate reading that instead
    restricts the lag grid.  ``initial`` defaults to the uniform law,
    since the conditional probabilities depend on the path law, not just
    the kernels.
    """
    if n0_applies_to not in ("base", "lag"):
        raise ValueError("n0_applies_to must be 'base' or 'lag'")
    if n0_applies_to == "base":
        bases = tuple(b for b in base_times if b >= n0)
        lag_grid = tuple(lags)
    else:
        bases = tuple(base_times)
        lag_grid = tuple(t for t in lags if t >= n0)
    if not bases or not lag_grid:
        raise ValueError("grids must be nonempty after applying n0")
    if min(bases) < 0 or min(lag_grid) < 0:
        raise ValueError("base times and lags must be nonnegative")

    size = schedule.space.size
    init = np.full(size, 1.0 / size) if initial is None else np.asarray(initial, float)
    sampler = _Sampler(schedule)
    in_target = _target_mask(schedule)
    max_t = max(bases) + max(lag_grid)

    # hits[t, i]: path i is in the target set at time t.  Path i draws X_t
    # from draw t of stream i.
    keys = stream_keys(seed, count=n_paths)
    x = _InverseCdf(np.cumsum(init)[None, :])(np.zeros(n_paths, dtype=np.int64), uniforms(keys, 0))
    hits = np.empty((max_t + 1, n_paths), dtype=bool)
    hits[0] = in_target[x]
    for t in range(max_t):
        x = sampler.draw(t, x, uniforms(keys, t + 1))
        hits[t + 1] = in_target[x]

    points = []
    gamma_hat = 1.0
    for b in bases:
        conditioned = hits[b]
        k = int(conditioned.sum())
        for lag in lag_grid:
            if k == 0:
                points.append(RegularityPoint(b, lag, math.nan, math.nan, 0))
                continue
            p_hat = float(hits[b + lag, conditioned].mean())
            se = math.sqrt(p_hat * (1.0 - p_hat) / k)
            points.append(RegularityPoint(b, lag, p_hat, se, k))
            gamma_hat = min(gamma_hat, p_hat - 3.0 * se)

    return RegularityScan(
        points=tuple(points), n0=n0, n_paths=n_paths, gamma_hat=max(gamma_hat, 0.0)
    )
