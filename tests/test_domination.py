import itertools
import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    DominatingSequence,
    RegularityCertificate,
    birth_death_schedule,
    check_domination,
    domination_valid_for,
    down_probabilities,
    estimate_regularity,
    estimate_renewal_tails,
    exact_regularity,
    first_return_coefficients,
    hitting_time_distribution,
    regularity_from_floor,
    return_floor,
    walk_dominating_sequence,
    walk_return_law,
)
from renewalsim.domination import RegularityPoint

from conftest import delta, periodic_two_state, two_state
from oracles import first_return_series, in_target_again

walk_p = st.floats(min_value=0.51, max_value=0.99)


def time_variant_points(surf, family_alpha=0.005):
    """(lag, i, j) where start times i and j differ beyond a two-sided z window.

    z is Bonferroni over every pair of start times at every lag, so a
    time-invariant schedule trips some window with probability at most
    ``family_alpha`` (normal approximation).
    """
    pairs = list(itertools.combinations(range(len(surf.start_times)), 2))
    lags = range(surf.tails.shape[1])
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

    @pytest.mark.parametrize("p", [0.51, 0.75, 0.99])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 2000, 5001])
    def test_bit_identical_to_the_term_recurrence(self, p, n):
        """Each term is the one before it times 2(2k - 1)x / (k + 1), in that
        order of operations, as a scalar loop over k computes it."""
        x = p * (1.0 - p)
        expected = np.zeros(n + 1)
        term, k = 2.0 * x, 1
        while 2 * k <= n:
            expected[2 * k] = term
            term *= 2.0 * (2 * k - 1) * x / (k + 1)
            k += 1
        assert first_return_coefficients(p, n).tobytes() == expected.tobytes()

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
    """The envelope applies when every down probability alpha is at least p."""

    def test_equality_counts(self):
        assert domination_valid_for(0.75, 0.75)

    def test_small_product_fails(self):
        assert not domination_valid_for(0.9, 0.8)

    def test_matching_product(self):
        # alpha = 1 - p has alpha(1 - alpha) = p(1 - p) but drifts away from 0
        assert not domination_valid_for(0.6, 0.4)
        assert domination_valid_for(0.6, 0.95)

    @pytest.mark.parametrize("p", [0.51, 0.6, 0.75, 0.82, 0.99])
    def test_alpha_equal_to_p_is_accepted(self, p):
        assert domination_valid_for(p, p)

    @pytest.mark.parametrize("p", [0.51, 0.6, 0.75, 0.82, 0.99])
    def test_alpha_equal_to_one_minus_p_is_rejected(self, p):
        assert not domination_valid_for(p, 1.0 - p)

    def test_bad_inputs_rejected(self):
        for inf_alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                domination_valid_for(0.75, inf_alpha)
        with pytest.raises(ValueError):
            domination_valid_for(0.4, 0.7)


ENVELOPE_LAGS = 300


class TestExactEnvelope:
    """The walk envelope dominates the exact renewal tails of every chain the
    pre-check accepts."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_renewal_tails_stay_below_the_envelope(self, data):
        p = data.draw(st.floats(0.51, 0.95), label="p")
        cap = data.draw(st.integers(3, 40), label="cap")
        phases = data.draw(st.integers(1, 3), label="phases")
        alpha = st.floats(p, 0.999)
        rows = [np.array(data.draw(st.lists(alpha, min_size=cap, max_size=cap))) for _ in range(phases)]
        kernels = birth_death_schedule(cap, rows)
        assert domination_valid_for(p, down_probabilities(kernels).min())
        envelope = walk_dominating_sequence(p, ENVELOPE_LAGS).values
        for phase in range(phases):
            # a renewal at time phase: one step by that phase's row 0, then
            # the first hit of 0 under the phases that follow
            after = birth_death_schedule(cap, rows[phase + 1:] + rows[:phase + 1])
            hit = hitting_time_distribution(after, kernels.at(phase)[0], horizon=ENVELOPE_LAGS - 1)
            tails = np.append(1.0, hit.tails)  # P{gap > k}, k = 0..ENVELOPE_LAGS
            excess = tails - envelope
            assert excess.max() <= 1e-12, (phase, int(excess.argmax()), excess.max())


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

    def test_scans_need_a_path(self):
        # with no paths every tail would be 0/0 and gamma_hat would have no evidence
        sched = two_state(0.5, 0.5)
        with pytest.raises(ValueError, match="n_paths"):
            estimate_renewal_tails(sched, [0], [0], max_lag=4, n_paths=0, seed=1)
        with pytest.raises(ValueError, match="n_paths"):
            estimate_regularity(sched, n0=0, base_times=[0], lags=[1], n_paths=0, seed=1)


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
        return birth_death_schedule(50, [0.75, 0.70])

    def _check_regularity(self, sched, initial, bases, lags):
        scan = estimate_regularity(sched, n0=0, base_times=bases, lags=lags, n_paths=20000,
                                   seed=self.SEED, initial=initial)
        exact = exact_regularity(sched, n0=0, base_times=bases, lags=lags, initial=initial)
        assert len(scan.points) == len(exact.points) == len(bases) * len(lags)
        for pt, ex in zip(scan.points, exact.points):
            assert (pt.base_time, pt.lag) == (ex.base_time, ex.lag)
            assert self._within(pt.estimate, ex.estimate, pt.n_conditioned), (pt, ex)

    def test_regularity_grid(self):
        self._check_regularity(self._schedule(), delta(51, 0), [0, 1, 2, 3], [0, 1, 2, 3, 4, 8, 16, 32])

    def test_regularity_grid_with_a_body(self):
        # three body steps ahead of a period-2 cycle, from a spread law
        body = tuple(np.linspace(a, a + 0.2, 20) for a in (0.3, 0.5, 0.7))
        schedule = birth_death_schedule(20, (np.full(20, 0.8), np.full(20, 0.6)), body=body)
        initial = np.linspace(1.0, 0.0, 21) ** 2
        self._check_regularity(schedule, initial / initial.sum(),
                               [0, 1, 2, 3, 5], [0, 1, 2, 3, 4, 8, 16])

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
        assert check_domination(surf, env).any()

    def test_unit_envelope_passes(self):
        surf = self._surface()
        env = DominatingSequence(values=np.ones(30), head_mass=30.0, tail_bound=None)
        assert not check_domination(surf, env).any()

    def test_flags_match_pointwise_scan(self):
        # every (start time, lag) with est - 3 SE above the envelope, over the
        # lags both the surface and the envelope hold
        from renewalsim import birth_death_schedule

        sched = birth_death_schedule(30, [0.6])
        surf = estimate_renewal_tails(sched, [0, 2, 5], [0], max_lag=60, n_paths=500, seed=3)
        for env, lags in ((walk_dominating_sequence(0.95, 40), 41),
                          (DominatingSequence(values=np.linspace(0.5, 0.0, 100), head_mass=1.0, tail_bound=0.0), 61)):
            mask = check_domination(surf, env)
            expected = [
                [surf.tails[i, lag] - 3.0 * surf.se[i, lag] > env.at(lag) for lag in range(lags)]
                for i in range(len(surf.start_times))
            ]
            assert any(map(any, expected))
            assert mask.tolist() == expected

    def test_walk_envelope_dominates_birth_death(self):
        from renewalsim import birth_death_schedule

        sched = birth_death_schedule(30, [0.75])
        surf = estimate_renewal_tails(sched, [0, 1, 3], [0], max_lag=40,
                                      n_paths=4000, seed=31)
        env = walk_dominating_sequence(0.75, 200)
        mask = check_domination(surf, env)
        assert not mask.any(), mask.nonzero()


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
        assert regularity_from_floor(0.5, 2.0).provenance == "analytic"

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
        assert scan.certificate().provenance == "mc"

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
        assert not scan.points[0].observed
        assert (scan.points[0].estimate, scan.points[0].se) == (None, None)
        # a point without evidence rejects the scan
        assert scan.gamma_hat == 0.0
        assert scan.certificate() is None

    def test_lag_reading_flag(self):
        sched = two_state(0.4, 0.6)
        scan = estimate_regularity(sched, n0=2, base_times=[0, 1], lags=[1, 2, 3],
                                   n_paths=200, seed=13, n0_applies_to="lag")
        assert {p.lag for p in scan.points} == {2, 3}
        assert {p.base_time for p in scan.points} == {0, 1}


@st.composite
def schedules_and_laws(draw):
    """A birth-death schedule (cap 3-30, body of 0-3 steps, period 1-3, target
    set {0} or {0, 1}) and a random initial law with mass on every state."""
    cap = draw(st.integers(3, 30), label="cap")
    alpha = st.floats(0.05, 0.95)

    def rows(count):
        return tuple(np.array(draw(st.lists(alpha, min_size=cap, max_size=cap))) for _ in range(count))

    body = rows(draw(st.integers(0, 3), label="body"))
    tail = rows(draw(st.integers(1, 3), label="period"))
    targets = draw(st.sampled_from([(0,), (0, 1)]), label="targets")
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=cap + 1, max_size=cap + 1)))
    return birth_death_schedule(cap, tail, body=body, target_set=targets), weights / weights.sum()


class TestExactRegularity:
    """``exact_regularity`` against the one-step-at-a-time oracle."""

    @staticmethod
    def _assert_matches_oracle(scan, sched, initial):
        for pt in scan.points:
            expected = in_target_again(sched, initial, pt.base_time, pt.lag)
            assert pt.observed == (expected is not None), pt
            if pt.observed:
                assert abs(pt.estimate - expected) <= 1e-12, (pt, expected)
                assert (pt.se, pt.n_conditioned) == (0.0, 1)

    @settings(max_examples=40, deadline=None)
    @given(schedules_and_laws(), st.data())
    def test_matches_stepping(self, sched_law, data):
        sched, initial = sched_law
        times = st.lists(st.integers(0, 12), min_size=1, max_size=5)
        bases, lags = data.draw(times, label="bases"), data.draw(times, label="lags")
        n0 = data.draw(st.integers(0, 4), label="n0")
        reading = data.draw(st.sampled_from(["base", "lag"]), label="n0_applies_to")
        kept_bases = [b for b in bases if reading == "lag" or b >= n0]
        kept_lags = [t for t in lags if reading == "base" or t >= n0]
        if not kept_bases or not kept_lags:
            with pytest.raises(ValueError, match="grids must be nonempty after applying n0"):
                exact_regularity(sched, n0, bases, lags, initial=initial, n0_applies_to=reading)
            return
        scan = exact_regularity(sched, n0, bases, lags, initial=initial, n0_applies_to=reading)
        # the grid in the given order, duplicates kept, as the Monte Carlo scan lists it
        assert [(pt.base_time, pt.lag) for pt in scan.points] == [(b, t) for b in kept_bases for t in kept_lags]
        assert (scan.n0, scan.n_paths, scan.provenance) == (n0, 0, "exact")
        self._assert_matches_oracle(scan, sched, initial)
        assert scan.gamma_hat == min(pt.estimate for pt in scan.points)

    @settings(max_examples=5, deadline=None)
    @given(schedules_and_laws())
    def test_powers_match_stepping_near_5000(self, sched_law):
        sched, initial = sched_law
        scan = exact_regularity(sched, 0, [4997, 5000, 5003], [0, 1, 4999], initial=initial)
        self._assert_matches_oracle(scan, sched, initial)

    def test_times_of_a_billion_take_powers(self):
        # alternating 0.75 / 0.70 from state 0: by time 2,000 the law has
        # settled on its period-2 limit cycle, so times of 10**9 of the same
        # parity give the same values
        sched = birth_death_schedule(50, [0.75, 0.70])
        start = time.perf_counter()
        scan = exact_regularity(sched, 0, [10**9, 10**9 + 1], [10**9, 10**9 + 1], initial=delta(51, 0))
        assert time.perf_counter() - start < 1.0
        for pt in scan.points:
            near = in_target_again(sched, delta(51, 0), 2000 + pt.base_time % 2, 2000 + pt.lag % 2)
            assert abs(pt.estimate - near) <= 1e-12, (pt, near)

    def test_unobserved_points_reject_without_warnings(self, flip_flop):
        # from 0 the flip-flop is never in the target set at odd times, and
        # never back in it after an odd lag; pytest turns a warning into an error
        scan = exact_regularity(flip_flop, 0, [0, 1, 10**9 + 1], [0, 1, 2], initial=delta(2, 0))
        by_point = {(pt.base_time, pt.lag): pt for pt in scan.points}
        assert by_point[0, 0].estimate == 1.0 and by_point[0, 1].estimate == 0.0
        assert [pt for pt in scan.points if not pt.observed] == [
            RegularityPoint(b, lag, None, None, 0) for b in (1, 10**9 + 1) for lag in (0, 1, 2)
        ]
        assert scan.gamma_hat == 0.0 and scan.certificate() is None

    def test_absorbed_chain_certifies_one(self, identity_2):
        scan = exact_regularity(identity_2, 0, [0, 1, 2], [0, 1, 2, 3], initial=delta(2, 0))
        assert scan.gamma_hat == 1.0
        assert scan.certificate() == RegularityCertificate(gamma=1.0, n0=0, provenance="exact")

    def test_uniform_law_by_default(self):
        sched = two_state(0.3, 0.6)
        assert exact_regularity(sched, 0, [2], [3]).points == exact_regularity(
            sched, 0, [2], [3], initial=[0.5, 0.5]).points

    @pytest.mark.parametrize("entry", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_kernel_entries(self, entry):
        # the schedule cannot be built, so the grid never sees the entry
        with pytest.raises(ValueError, match=r"^tail\[1\], row 0: entry 1 is"):
            periodic_two_state([[[0.5, 0.5], [0.5, 0.5]], [[0.5, entry], [0.5, 0.5]]])

    def test_grid_rules_match_the_scan(self):
        sched = two_state(0.5, 0.5)
        for kwargs, message in (({"n0_applies_to": "x"}, "n0_applies_to"),
                                ({"base_times": [-1, 0], "n0_applies_to": "lag"}, "nonnegative"),
                                # a negative entry on the axis n0 filters is refused, not dropped
                                ({"base_times": [-3, 0]}, "nonnegative"),
                                ({"base_times": [-3]}, "nonnegative"),
                                ({"lags": [-1, 2], "n0_applies_to": "lag"}, "nonnegative"),
                                ({"n0": 5}, "grids must be nonempty")):
            args = {"n0": 0, "base_times": [0, 1], "lags": [1], **kwargs}
            with pytest.raises(ValueError, match=message):
                exact_regularity(sched, **args)
            with pytest.raises(ValueError, match=message):
                estimate_regularity(sched, n_paths=10, seed=1, **args)
