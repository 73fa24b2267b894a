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
first-return coefficients, builds the envelope, and provides checkers for
both conditions on arbitrary schedules: Monte Carlo for the renewal tails,
and both Monte Carlo and exact forward propagation for regularity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import check_unit_interval, suffix_tails
from .kernel import KernelSchedule, _check_entries, _check_initial, check_fits
from .rng import stream_keys, uniforms
from .simulate import _counter_paths, _Sampler


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
    # the law, its suffix sums and the values span n + 1 lags
    check_fits(3 * 8 * (n + 1), f"the dominating sequence of length {n}", available=True)
    law = walk_return_law(p, n)
    r = 4.0 * p * (1.0 - p)
    # The mass past lag n is at most the geometric series of law[j + 2] <=
    # r * law[j], and at most one minus the stored mass, plus its rounding.
    beyond = min(law[n - n % 2] * r / (1.0 - r), 1.0 - law.sum() + n * np.finfo(float).eps)
    tail_mass = suffix_tails(law, beyond)
    tail_mass[:2] = 1.0  # unit mass, and no return before lag 2
    values = tail_mass / p
    head_mass = float(values.sum())
    # G_{k+2} <= r * G_k, so the sum beyond index n is geometrically small.
    tail_bound = float((values[n - 1] + values[n]) * r / (1.0 - r))
    return DominatingSequence(values=values, head_mass=head_mass, tail_bound=tail_bound)


def domination_valid_for(p: float, inf_alpha: float) -> bool:
    """Whether the walk envelope applies: inf alpha >= p over every step and
    state, so the chains return to 0 at least as fast as the walk.  (The
    test p(1-p) >= alpha(1-alpha) also passes alpha <= 1 - p, which drifts up.)"""
    _check_walk_parameter(p)
    if not 0.0 < inf_alpha < 1.0:
        raise ValueError("inf_alpha must lie in (0, 1)")
    return inf_alpha >= p


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
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")

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
    est = surface.tails[:, : lags + 1]
    se = surface.se[:, : lags + 1]
    bound = envelope.values[: lags + 1]
    # nonzero walks the grid row by row: start times in order, lags within each
    flags = tuple(
        DominationFlag(
            surface.start_times[ti], int(lag), float(est[ti, lag]), float(se[ti, lag]), float(bound[lag])
        )
        for ti, lag in zip(*np.nonzero(est - 3.0 * se > bound))
    )
    return DominationReport(flags=flags, checked_lags=lags)


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
class RegularityCertificate:
    """A certified uniform lower bound on later in-target probability.

    ``provenance`` is the report tag of ``gamma``: ``"analytic"`` for the
    floor certificate, ``"mc"`` for a sampled regularity scan and
    ``"exact"`` for a grid read off the kernels.
    """

    gamma: float
    n0: int
    provenance: str

    def __post_init__(self):
        check_unit_interval(self.gamma, "gamma")
        if self.n0 < 0:
            raise ValueError("n0 must be nonnegative")


def regularity_from_floor(floor: float, mean_bound: float) -> RegularityCertificate:
    """Analytic certificate ``gamma = floor ** (mean_bound / floor)`` with n0 = 0.

    ``floor`` is the uniform lower bound on the one-step stay probability
    at the floor state and ``mean_bound`` a first-moment constant of the
    dominating walk (callers usually pass ``walk_moment1(p)``).
    """
    check_unit_interval(floor, "floor")
    if mean_bound < 1.0:
        raise ValueError("mean_bound must be at least 1")
    gamma = floor ** (mean_bound / floor)
    return RegularityCertificate(gamma=gamma, n0=0, provenance="analytic")


@dataclass(frozen=True)
class RegularityPoint:
    """One grid point; ``estimate`` and ``se`` are None when unobserved.

    On an exact grid ``se`` is 0.0 (no sampling error) and ``n_conditioned``
    counts conditioning laws: 1 when pi_b(C) > 0, 0 when the chain cannot be
    in the target set at the base time.
    """

    base_time: int
    lag: int
    estimate: float | None
    se: float | None
    n_conditioned: int

    @property
    def observed(self) -> bool:
        return self.n_conditioned > 0


@dataclass(frozen=True)
class RegularityScan:
    """Grid of conditional in-target probabilities and the resulting bound.

    ``gamma_hat`` is the minimum over the grid points of the estimate
    minus three standard errors (conservative), floored at zero.  A grid
    point whose conditioning event never occurred is kept and flagged, and
    sets ``gamma_hat`` to zero: a point without evidence certifies nothing.
    ``provenance`` tags ``gamma_hat``: ``"mc"`` for a sampled scan (with
    ``n_paths`` paths), ``"exact"`` for a grid read off the kernels
    (``n_paths`` 0).
    """

    points: tuple[RegularityPoint, ...]
    n0: int
    n_paths: int
    gamma_hat: float
    provenance: str = "mc"

    @property
    def flagged(self) -> tuple[RegularityPoint, ...]:
        return tuple(p for p in self.points if not p.observed)

    def certificate(self) -> RegularityCertificate | None:
        """Certificate of the scan, or None when it is consistent with
        gamma = 0 (for example on periodic chains)."""
        if self.gamma_hat <= 0.0:
            return None
        return RegularityCertificate(gamma=self.gamma_hat, n0=self.n0, provenance=self.provenance)


def _regularity_grid(n0: int, base_times: Sequence[int], lags: Sequence[int], n0_applies_to: str):
    """Base times and lags left after ``n0`` (see :func:`estimate_regularity`), in the given order."""
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
    return bases, lag_grid


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
    the kernels.  :func:`exact_regularity` gives the same grid exactly.
    """
    bases, lag_grid = _regularity_grid(n0, base_times, lags, n0_applies_to)
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")

    size = schedule.space.size
    init = np.full(size, 1.0 / size) if initial is None else _check_initial(initial, size)
    in_target = _target_mask(schedule)
    max_t = max(bases) + max(lag_grid)

    # hits[t, i]: path i (counter stream i) is in the target set at time t
    hits = np.empty((max_t + 1, n_paths), dtype=bool)
    for t, x in enumerate(_counter_paths(schedule, init, stream_keys(seed, count=n_paths), max_t)):
        hits[t] = in_target[x]

    points = []
    gamma_hat = 1.0
    for b in bases:
        conditioned = hits[b]
        k = int(conditioned.sum())
        for lag in lag_grid:
            if k == 0:
                points.append(RegularityPoint(b, lag, None, None, 0))
                gamma_hat = 0.0
                continue
            p_hat = float(hits[b + lag, conditioned].mean())
            se = math.sqrt(p_hat * (1.0 - p_hat) / k)
            points.append(RegularityPoint(b, lag, p_hat, se, k))
            gamma_hat = min(gamma_hat, p_hat - 3.0 * se)

    return RegularityScan(
        points=tuple(points), n0=n0, n_paths=n_paths, gamma_hat=max(gamma_hat, 0.0)
    )


def _forward(schedule: KernelSchedule, law: np.ndarray, start: int, steps: int) -> np.ndarray:
    """``law`` times K(start)···K(start + steps - 1).

    Whole tail cycles past the body take binary powers of the period
    product when those log2(cycles) + period matrix products cost less
    than the cycles' vector steps (10**9 steps take about 30 squarings);
    every other step is a vector step.
    """
    t, end = start, start + steps
    period = schedule.tail.period
    while t < end and (t < len(schedule.body) or t % period):
        law = law @ schedule.at(t)
        t += 1
    cycles = (end - t) // period
    if cycles * period > (period + cycles.bit_length()) * len(law):
        t += cycles * period
        power = functools.reduce(np.matmul, schedule.tail.values)  # one cycle from a multiple of period
        while cycles:
            # back to unit row sums: left alone, their rounding doubles with every squaring
            sums = power.sum(axis=1, keepdims=True)
            power = power / np.where(sums > 0.0, sums, 1.0)
            if cycles & 1:
                law = law @ power
            cycles >>= 1
            if cycles:
                power = power @ power
    while t < end:
        law = law @ schedule.at(t)
        t += 1
    return law


def exact_regularity(
    schedule: KernelSchedule,
    n0: int,
    base_times: Sequence[int],
    lags: Sequence[int],
    initial=None,
    n0_applies_to: str = "base",
) -> RegularityScan:
    """P{in target at base + lag | in target at base} over a grid, exactly.

    The point (b, l) is (pi_b 1_C) K_b···K_{b+l-1} 1_C / pi_b(C), with pi_b
    the law at time b from ``initial`` (uniform by default) and C the
    target set.  Grid rules and point order are those of
    :func:`estimate_regularity`; a point with pi_b(C) = 0 is unobserved and
    sets ``gamma_hat`` to zero.  Raises ValueError on a kernel entry that
    is negative or not finite.
    """
    bases, lag_grid = _regularity_grid(n0, base_times, lags, n0_applies_to)
    for label, kernel in schedule.labeled():
        _check_entries(kernel, label)
    size = schedule.space.size
    law = np.full(size, 1.0 / size) if initial is None else _check_initial(initial, size)
    in_target = _target_mask(schedule)

    values: dict[tuple[int, int], float] = {}
    t = 0
    for b in sorted(set(bases)):
        law, t = _forward(schedule, law, t, b - t), b
        mass = float(law[in_target].sum())
        if mass <= 0.0:
            continue
        restricted, lag_done = np.where(in_target, law, 0.0), 0
        for lag in sorted(set(lag_grid)):
            restricted, lag_done = _forward(schedule, restricted, b + lag_done, lag - lag_done), lag
            values[b, lag] = min(float(restricted[in_target].sum()) / mass, 1.0)

    points = tuple(
        RegularityPoint(b, lag, values[b, lag], 0.0, 1) if (b, lag) in values
        else RegularityPoint(b, lag, None, None, 0)
        for b in bases for lag in lag_grid
    )
    gamma_hat = min(pt.estimate if pt.observed else 0.0 for pt in points)
    return RegularityScan(points=points, n0=n0, n_paths=0, gamma_hat=gamma_hat, provenance="exact")
