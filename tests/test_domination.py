import itertools
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    DominatingSequence,
    birth_death_schedule,
    check_domination,
    domination_valid_for,
    estimate_regularity,
    estimate_renewal_tails,
    first_return_coefficients,
    first_return_series,
    hitting_time_distribution,
    periodic_birth_death,
    regularity_from_floor,
    return_floor,
    walk_dominating_sequence,
    walk_return_law,
)

from conftest import delta, periodic_two_state, two_state

walk_p = st.floats(min_value=0.51, max_value=0.99)


def time_variant_points(surf, family_alpha=0.005):
    """(lag, i, j) where start times i and j differ beyond a two-sided z window.

    z is Bonferroni over every pair of start times at every lag, so a
    time-invariant schedule trips some window with probability at most
    ``family_alpha`` (normal approximation).
    """
    pairs = list(itertools.combinations(range(len(surf.start_times)), 2))
    lags = range(surf.max_lag + 1)
    z = NormalDist().inv_cdf(1 - family_alpha / (2 * len(pairs) * len(lags)))
    return [(n, i, j) for n in lags for i, j in pairs
            if abs(surf.tails[i, n] - surf.tails[j, n]) > z * math.hypot(surf.se[i, n], surf.se[j, n])]


class TestFirstReturn:
    def test_pinned_low_order_values(self):
        f = first_return_coefficients(0.75, 8)
        assert f[2] == pytest.approx(0.375, abs=1e-15)  # 2p(1-p), length-2 path count
        assert f[4] == pytest.approx(0.0703125, abs=1e-15)  # 2(p(1-p))^2
        assert f[1] == 0.0 and f[3] == 0.0

    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    def test_closed_forms_any_p(self, p):
        f = first_return_coefficients(p, 6)
        x = p * (1 - p)
        assert f[2] == pytest.approx(2 * x, abs=1e-12)
        assert f[4] == pytest.approx(2 * x * x, abs=1e-12)
        assert f[6] == pytest.approx(4 * x**3, abs=1e-12)

    @pytest.mark.parametrize("p", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_matches_series_arithmetic(self, p):
        closed = first_return_coefficients(p, 60)
        series = first_return_series(p, 60)
        assert np.allclose(closed, series, atol=1e-12, rtol=0)

    def test_enumeration_oracle_low_orders(self):
        # brute force over all +-1 step sequences of length up to 8
        from itertools import product

        p = 0.7
        totals = {n: 0.0 for n in range(1, 9)}
        for n in range(1, 9):
            for steps in product((-1, 1), repeat=n):
                pos = np.cumsum(steps)
                if pos[-1] == 0 and (pos[:-1] != 0).all():
                    prob = 1.0
                    for s in steps:
                        prob *= p if s == -1 else (1 - p)
                    totals[n] += prob
        f = first_return_coefficients(p, 8)
        for n in range(1, 9):
            assert f[n] == pytest.approx(totals[n], abs=1e-12)

    @given(st.floats(min_value=0.6, max_value=0.99))
    @settings(max_examples=40)
    def test_partial_sums_monotone_and_bounded(self, p):
        f = first_return_coefficients(p, 2000)
        sums = np.cumsum(f)
        assert (np.diff(sums) >= 0).all()
        assert sums[-1] <= 1 + 1e-12
        # the law of a drifted walk is defective: total mass is 2(1-p)
        assert sums[-1] == pytest.approx(2 * (1 - p), abs=1e-6)

    def test_domain_enforced(self):
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(ValueError):
                first_return_coefficients(bad, 10)


class TestWalkReturnLaw:
    def test_unit_mass(self):
        law = walk_return_law(0.75, 2000)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    def test_low_order_values(self):
        p = 0.75
        law = walk_return_law(p, 6)
        assert law[2] == pytest.approx(p, abs=1e-15)
        assert law[4] == pytest.approx(p * p * (1 - p), abs=1e-15)

    def test_is_normalized_first_return(self):
        p = 0.8
        f = first_return_coefficients(p, 40)
        law = walk_return_law(p, 40)
        assert np.allclose(law * 2 * (1 - p), f, atol=1e-15)


class TestDominatingSequence:
    def test_head_is_reciprocal_walk_parameter(self):
        env = walk_dominating_sequence(0.75, 2000)
        assert env.head == pytest.approx(1 / 0.75, abs=1e-12)
        assert env.at(-5) == env.head  # negative lags resolve to the head
        assert env.at(1) == env.head   # no mass at odd lag 1 yet

    def test_values_from_law_tails(self):
        p = 0.75
        env = walk_dominating_sequence(p, 100)
        law = walk_return_law(p, 100)
        assert env.at(2) == pytest.approx((1 - law[2]) / p, abs=1e-12)
        assert env.at(4) == pytest.approx((1 - law[2] - law[4]) / p, abs=1e-12)

    def test_total_mass_matches_mean_formula(self):
        # sum_n G_n = (mean return time) / p = (1 + 1/(2p-1)) / p
        for p in (0.6, 0.7, 0.75, 0.9):
            env = walk_dominating_sequence(p, 4000)
            expected = (1 + 1 / (2 * p - 1)) / p
            assert env.total_mass == pytest.approx(expected, abs=1e-6)

    @given(walk_p)
    @settings(max_examples=40)
    def test_head_is_exactly_reciprocal(self, p):
        # no return before lag 2 and unit total mass: the first two values are 1/p
        env = walk_dominating_sequence(p, 300)
        assert env.values[0] == env.values[1] == 1 / p

    def test_deep_values_follow_suffix_sums(self):
        # true values from an exactly rounded suffix sum over twice the range
        p, n = 0.75, 2000
        env = walk_dominating_sequence(p, n)
        law = walk_return_law(p, 2 * n)
        exact = np.array([math.fsum(law[k + 1:]) / p for k in range(n + 1)])
        exact[:2] = 1 / p
        assert (env.values >= exact * (1 - 4e-16)).all()  # never below, up to rounding
        assert env.values[n] > exact[n]  # the bound past lag n is conservative
        deep = slice(250, 1001)
        assert np.allclose(env.values[deep], exact[deep], rtol=1e-12, atol=0)

    @given(walk_p)
    @settings(max_examples=40)
    def test_nonincreasing_and_certified(self, p):
        env = walk_dominating_sequence(p, 300)
        assert (np.diff(env.values) <= 1e-15).all()
        assert (env.values >= 0).all()
        assert env.tail_bound is not None and env.tail_bound >= 0
        assert math.isfinite(env.total_mass)

    def test_rejects_increasing_values(self):
        with pytest.raises(ValueError):
            DominatingSequence(values=np.array([0.5, 1.0]), head_mass=1.5, tail_bound=0.0)


class TestDominationValidity:
    def test_equality_counts(self):
        assert domination_valid_for(0.75, 0.1875)

    def test_small_product_fails(self):
        assert not domination_valid_for(0.9, 0.2)

    def test_matching_product(self):
        assert domination_valid_for(0.6, 0.24)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            domination_valid_for(0.75, 0.3)
        with pytest.raises(ValueError):
            domination_valid_for(0.4, 0.2)


class TestRenewalTailSurface:
    def test_absorbed_chain_has_no_tail(self, identity_2):
        surf = estimate_renewal_tails(identity_2, [0, 3], [0], max_lag=10,
                                      n_paths=400, seed=5)
        assert np.allclose(surf.tails[:, 0], 1.0)
        assert np.allclose(surf.tails[:, 1:], 0.0)

    def test_geometric_gap_tail_matches_exact(self):
        # from 0: stay (gap 1) w.p. 0.5, else go to 1 and return geometric(0.5)
        sched = two_state(0.5, 0.5)
        surf = estimate_renewal_tails(sched, [0], [0], max_lag=8,
                                      n_paths=8000, seed=11)
        for n in range(9):
            exact_tail = 0.5**n
            assert abs(surf.tails[0, n] - exact_tail) <= 3 * max(surf.se[0, n], 1e-3)

    def test_time_constant_schedule_is_time_invariant(self):
        sched = two_state(0.5, 0.5)
        surf = estimate_renewal_tails(sched, [0, 2, 5], [0], max_lag=6,
                                      n_paths=6000, seed=13)
        assert not time_variant_points(surf)
        # power: stay probability at 0 alternating 0.5, 0.9 makes start time 5 differ
        alternating = periodic_two_state([[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.5, 0.5]]])
        surf = estimate_renewal_tails(alternating, [0, 2, 5], [0], max_lag=6,
                                      n_paths=6000, seed=13)
        assert time_variant_points(surf)

    def test_negative_times_rejected(self):
        sched = two_state(0.5, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_renewal_tails(sched, [-2], [0], max_lag=4, n_paths=10, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_regularity(sched, n0=0, base_times=[-1, 0], lags=[1], n_paths=10,
                                seed=1, n0_applies_to="lag")

    def test_start_states_must_be_targets(self):
        sched = two_state(0.5, 0.5)
        with pytest.raises(ValueError):
            estimate_renewal_tails(sched, [0], [1], max_lag=4, n_paths=10, seed=1)


class TestScansAgainstExactLaws:
    """Both scans on the condition-empirical chain (cap 50, down probability
    alternating 0.75, 0.70, start 0) against exact law propagation.

    Each estimate must lie within 4 binomial SE, taken at the exact value,
    plus one path: past the lags where fewer than one path is expected to
    survive, a single survivor is already several SE out.
    """

    SEED = 20190814
    N_PATHS = 5000

    @staticmethod
    def _within(estimate, exact, n):
        return np.abs(estimate - exact) <= 4 * np.sqrt(exact * (1 - exact) / n) + 1 / n

    def _schedule(self):
        return birth_death_schedule(periodic_birth_death(50, [0.75, 0.70]))

    def test_regularity_grid(self):
        sched = self._schedule()
        scan = estimate_regularity(sched, n0=0, base_times=[0, 1, 2, 3],
                                   lags=[0, 1, 2, 3, 4, 8, 16, 32], n_paths=20000,
                                   seed=self.SEED, initial=delta(51, 0))
        laws = [delta(51, 0)]
        for t in range(3):
            laws.append(laws[-1] @ sched.at(t))
        assert len(scan.points) == 32
        for pt in scan.points:
            law = np.where(np.arange(51) == 0, laws[pt.base_time], 0.0)
            law /= law.sum()
            for t in range(pt.base_time, pt.base_time + pt.lag):
                law = law @ sched.at(t)
            assert self._within(pt.estimate, law[0], pt.n_conditioned), pt

    def test_renewal_tails(self):
        sched = self._schedule()
        surf = estimate_renewal_tails(sched, [0, 1, 2, 3], [0], max_lag=200,
                                      n_paths=self.N_PATHS, seed=self.SEED)
        for ti, t0 in enumerate(surf.start_times):
            alive = delta(51, 0)
            exact = [1.0]
            for t in range(t0, t0 + 200):
                alive = alive @ sched.at(t)
                alive[0] = 0.0  # returned to the target set
                exact.append(alive.sum())
            ok = self._within(surf.tails[ti], np.array(exact), self.N_PATHS)
            assert ok.all(), (t0, np.flatnonzero(~ok))


class TestCheckDomination:
    def _surface(self, seed=21):
        return estimate_renewal_tails(two_state(0.5, 0.5), [0, 1], [0],
                                      max_lag=20, n_paths=4000, seed=seed)

    def test_zero_envelope_fails(self):
        surf = self._surface()
        env = DominatingSequence(values=np.zeros(30), head_mass=0.0, tail_bound=0.0)
        assert not check_domination(surf, env).passed

    def test_unit_envelope_passes(self):
        surf = self._surface()
        env = DominatingSequence(values=np.ones(30), head_mass=30.0, tail_bound=None)
        assert check_domination(surf, env).passed

    def test_walk_envelope_dominates_birth_death(self):
        from renewalsim import birth_death_schedule, constant_birth_death

        sched = birth_death_schedule(constant_birth_death(30, 0.75))
        surf = estimate_renewal_tails(sched, [0, 1, 3], [0], max_lag=40,
                                      n_paths=4000, seed=31)
        env = walk_dominating_sequence(0.75, 200)
        report = check_domination(surf, env)
        assert report.passed, report.flags


class TestRegularity:
    def test_floor_is_min(self):
        assert return_floor(0.6, 0.7) == 0.6
        assert return_floor(0.5, 0.5) == 0.5

    def test_zero_floor_rejected(self):
        with pytest.raises(ValueError):
            return_floor(0.0, 0.5)

    def test_analytic_certificate_values(self):
        assert regularity_from_floor(0.5, 2.0).gamma == pytest.approx(0.0625, abs=1e-15)
        assert regularity_from_floor(1.0, 7.0).gamma == 1.0
        assert regularity_from_floor(0.6, 5.0).gamma == pytest.approx(0.6 ** (5 / 0.6), abs=1e-12)
        assert regularity_from_floor(0.5, 2.0).n0 == 0

    @given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=50)
    def test_certificate_monotonicity(self, floor, mean_bound):
        gamma = regularity_from_floor(floor, mean_bound).gamma
        assert regularity_from_floor(min(floor + 0.04, 1.0), mean_bound).gamma >= gamma
        assert regularity_from_floor(floor, mean_bound + 0.5).gamma <= gamma

    def test_absorbed_chain_scans_to_one(self, identity_2):
        scan = estimate_regularity(identity_2, n0=0, base_times=[0, 1, 2],
                                   lags=[0, 1, 2, 3], n_paths=300, seed=7,
                                   initial=delta(2, 0))
        assert scan.gamma_hat == 1.0
        assert scan.certificate() is not None

    def test_iid_chain_scan_near_marginal(self):
        # both rows (0.3, 0.7): being in the target at a later lag is 0.3 regardless
        sched = two_state(0.3, 0.3)
        scan = estimate_regularity(sched, n0=0, base_times=[1, 2], lags=[1, 2, 3],
                                   n_paths=20000, seed=17)
        assert scan.gamma_hat == pytest.approx(0.3, abs=0.03)

    def test_periodic_chain_rejected(self, flip_flop):
        scan = estimate_regularity(flip_flop, n0=0, base_times=[0, 1], lags=[0, 1, 2],
                                   n_paths=500, seed=3, initial=delta(2, 0))
        assert any(p.observed and p.estimate < 0.01 for p in scan.points)
        assert scan.gamma_hat == 0.0
        assert scan.certificate() is None

    def test_unobserved_points_flagged(self, flip_flop):
        # starting at 0 deterministically, the chain is never in C at odd times
        scan = estimate_regularity(flip_flop, n0=0, base_times=[1], lags=[1],
                                   n_paths=100, seed=9, initial=delta(2, 0))
        assert scan.flagged
        assert not scan.points[0].observed

    def test_lag_reading_flag(self):
        sched = two_state(0.4, 0.6)
        scan = estimate_regularity(sched, n0=2, base_times=[0, 1], lags=[1, 2, 3],
                                   n_paths=200, seed=13, n0_applies_to="lag")
        assert {p.lag for p in scan.points} == {2, 3}
        assert {p.base_time for p in scan.points} == {0, 1}
