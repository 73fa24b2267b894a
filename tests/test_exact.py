import math

import numpy as np
import pytest

from renewalsim import (
    ConstantTail,
    KernelSchedule,
    SimulationPlan,
    StateSpace,
    birth_death_schedule,
    estimate_joint_renewal,
    hitting_time_distribution,
    periodic_birth_death,
    product_tail,
)

from conftest import delta, two_state


def solve_expected_hit(matrix, targets, initial):
    """Independent oracle: (I - Q) h = 1 on the non-target block."""
    matrix = np.asarray(matrix, float)
    n = matrix.shape[0]
    outside = [i for i in range(n) if i not in targets]
    q = matrix[np.ix_(outside, outside)]
    h = np.linalg.solve(np.eye(len(outside)) - q, np.ones(len(outside)))
    full = np.zeros(n)
    full[outside] = h
    return float(np.asarray(initial, float) @ full)


class TestHittingTime:
    def test_geometric_law(self):
        sched = two_state(1.0, 0.5)
        res = hitting_time_distribution(sched, delta(2, 1), horizon=200)
        for n in range(1, 12):
            assert res.table.mass[n] == pytest.approx(0.5**n, abs=1e-12)
        assert res.expectation.low == pytest.approx(2.0, abs=1e-10)
        # without a tail certificate the upper end stays honestly open
        assert res.expectation.unbounded
        closed = hitting_time_distribution(sched, delta(2, 1), horizon=200, tail_gamma=0.5)
        assert closed.expectation.high == pytest.approx(2.0, abs=1e-10)

    def test_start_inside_target(self):
        sched = two_state(0.3, 0.3)
        res = hitting_time_distribution(sched, delta(2, 0), horizon=50)
        assert res.table.mass[0] == 1.0
        assert res.expectation.low == 0.0
        assert res.expectation.high == 0.0

    def test_absorbing_outside_target_flagged_unbounded(self):
        sched = two_state(0.5, 0.0)  # state 1 absorbs
        res = hitting_time_distribution(sched, delta(2, 1), horizon=64)
        assert res.table.residual == pytest.approx(1.0)
        assert res.expectation.unbounded
        assert math.isinf(res.expectation.high)

    def test_certificate_closes_the_bracket(self):
        sched = two_state(1.0, 0.5)
        res = hitting_time_distribution(sched, delta(2, 1), horizon=20, tail_gamma=0.5)
        assert not res.expectation.unbounded
        assert res.expectation.low <= 2.0 <= res.expectation.high

    def test_mass_conservation(self):
        sched = two_state(0.42, 0.3)
        res = hitting_time_distribution(sched, [0.25, 0.75], horizon=300)
        assert res.table.mass_defect() < 1e-10

    def test_conservation_error_stays_at_rounding_level(self):
        schedule = birth_death_schedule(periodic_birth_death(20, [0.6, 0.55, 0.7]))
        res = hitting_time_distribution(schedule, np.eye(21)[12], horizon=2000)
        assert res.conservation_error < 1e-12
        assert res.table.mass_defect() < 1e-12

    def test_agrees_with_linear_solve(self):
        for p00, p10 in [(0.3, 0.5), (0.9, 0.1), (0.5, 0.25)]:
            sched = two_state(p00, p10)
            res = hitting_time_distribution(sched, delta(2, 1), horizon=3000)
            direct = solve_expected_hit([[p00, 1 - p00], [p10, 1 - p10]], {0}, delta(2, 1))
            assert res.expectation.low == pytest.approx(direct, abs=1e-8)


class TestProductTail:
    def test_both_absorbed_in_target(self):
        sched = two_state(1.0, 0.0)
        res = product_tail(sched, sched, delta(2, 0), delta(2, 0), horizon=30)
        assert res.tails[0] == pytest.approx(1.0)
        assert res.table.mass[1] == pytest.approx(1.0)
        assert np.allclose(res.tails[1:], 0.0)
        assert res.expectation.low == pytest.approx(1.0)
        assert res.expectation.high == pytest.approx(1.0)

    def test_disjoint_parity_never_meets(self, flip_flop):
        res = product_tail(flip_flop, flip_flop, delta(2, 0), delta(2, 1), horizon=40)
        assert res.table.residual == pytest.approx(1.0)
        assert res.expectation.unbounded

    def test_symmetric_pair_geometric_meeting(self):
        sched = two_state(0.5, 0.5)
        res = product_tail(sched, sched, delta(2, 1), delta(2, 1), horizon=400)
        # both uniform each step, so the meeting time is geometric(1/4)
        assert res.expectation.low == pytest.approx(4.0, abs=1e-9)
        for n in range(8):
            assert res.tails[n] == pytest.approx(0.75**n, abs=1e-12)

    def test_mass_conservation_along_propagation(self):
        s1 = two_state(0.35, 0.6)
        s2 = two_state(0.8, 0.15)
        res = product_tail(s1, s2, [0.4, 0.6], [0.2, 0.8], horizon=500)
        assert res.conservation_error < 1e-10
        assert res.table.mass_defect() < 1e-10

    def test_product_cap_enforced(self):
        sched = two_state(0.5, 0.5)
        with pytest.raises(ValueError):
            product_tail(sched, sched, delta(2, 0), delta(2, 0), horizon=5, cap=3)

    def test_oracle_matches_monte_carlo(self):
        s1 = two_state(0.5, 0.5)
        s2 = two_state(0.7, 0.2)
        res = product_tail(s1, s2, delta(2, 1), delta(2, 0), horizon=500)
        plan = SimulationPlan(s1, s2, delta(2, 1), delta(2, 0),
                              horizon=500, n_paths=20000, master_seed=2024)
        est = estimate_joint_renewal(plan)
        assert est.censored == 0
        assert abs(est.mean - res.expectation.low) <= 3 * est.se

    def test_time_inhomogeneous_pair(self):
        from renewalsim import PeriodicTail

        space = StateSpace(2, frozenset({0}))
        sched = KernelSchedule(
            space,
            (),
            PeriodicTail((np.array([[0.5, 0.5], [0.5, 0.5]]),
                          np.array([[0.9, 0.1], [0.2, 0.8]]))),
        )
        res = product_tail(sched, sched, delta(2, 0), delta(2, 1), horizon=600)
        plan = SimulationPlan(sched, sched, delta(2, 0), delta(2, 1),
                              horizon=600, n_paths=20000, master_seed=77)
        est = estimate_joint_renewal(plan)
        assert est.censored == 0
        assert abs(est.mean - res.expectation.low) <= 3 * est.se


class TestTailPrecision:
    """Deep exact tails keep their relative precision (no ``1 - cumsum`` cancellation)."""

    def test_tails_match_live_mass(self):
        from renewalsim import birth_death_schedule, constant_birth_death

        sched = birth_death_schedule(constant_birth_death(50, 0.75))
        start = delta(51, 0)
        horizon = 300
        res = product_tail(sched, sched, start, start, horizon=horizon)
        assert res.tails[horizon] == res.table.residual
        # independent propagation of the unabsorbed joint mass
        m = sched.at(0)
        joint = np.outer(start, start)
        live = [1.0]
        for _ in range(horizon):
            joint = m.T @ joint @ m
            joint[0, 0] = 0.0
            live.append(joint.sum())
        assert live[-1] < 1e-20
        np.testing.assert_allclose(res.tails, live, rtol=1e-12, atol=0)

    def test_hitting_tails_match_live_mass(self):
        from renewalsim import birth_death_schedule, constant_birth_death

        sched = birth_death_schedule(constant_birth_death(50, 0.75))
        horizon = 300
        res = hitting_time_distribution(sched, delta(51, 5), horizon=horizon)
        assert res.tails[horizon] == res.table.residual
        q = delta(51, 5)
        live = [1.0]
        for _ in range(horizon):
            q = q @ sched.at(0)
            q[0] = 0.0
            live.append(q.sum())
        assert live[-1] < 1e-20
        np.testing.assert_allclose(res.tails, live, rtol=1e-12, atol=0)
