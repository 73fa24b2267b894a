import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    KernelSchedule,
    SimulationPlan,
    StateSpace,
    birth_death_schedule,
    estimate_joint_renewal,
    hitting_time_distribution,
    product_tail,
)

from conftest import delta, two_state
from oracles import mass_defect


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
        assert math.isinf(res.expectation.high)
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
        assert math.isinf(res.expectation.high)

    def test_certificate_closes_the_bracket(self):
        sched = two_state(1.0, 0.5)
        res = hitting_time_distribution(sched, delta(2, 1), horizon=20, tail_gamma=0.5)
        assert not math.isinf(res.expectation.high)
        assert res.expectation.low <= 2.0 <= res.expectation.high

    def test_mass_conservation(self):
        sched = two_state(0.42, 0.3)
        res = hitting_time_distribution(sched, [0.25, 0.75], horizon=300)
        assert mass_defect(res.table) < 1e-10

    def test_conservation_error_stays_at_rounding_level(self):
        schedule = birth_death_schedule(20, [0.6, 0.55, 0.7])
        res = hitting_time_distribution(schedule, np.eye(21)[12], horizon=2000)
        assert res.conservation_error < 1e-12
        assert mass_defect(res.table) < 1e-12

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
        assert math.isinf(res.expectation.high)

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
        assert mass_defect(res.table) < 1e-10

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
        space = StateSpace(2, frozenset({0}))
        sched = KernelSchedule(
            space,
            (),
            (np.array([[0.5, 0.5], [0.5, 0.5]]),
             np.array([[0.9, 0.1], [0.2, 0.8]])),
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
        from renewalsim import birth_death_schedule

        sched = birth_death_schedule(50, [0.75])
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
        from renewalsim import birth_death_schedule

        sched = birth_death_schedule(50, [0.75])
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


def _reference_pair(schedule1, schedule2, initial1, initial2, targets, horizon):
    """Plain per-step absorbing loop: P{T > n}, n = 0..horizon, for the first
    step T >= 1 with both chains in ``targets``."""
    law = np.outer(initial1, initial2)
    block = np.ix_(targets, targets)
    tails = np.empty(horizon + 1)
    tails[0] = law.sum()
    for n in range(1, horizon + 1):
        law = schedule1.at(n - 1).T @ law @ schedule2.at(n - 1)
        law[block] = 0.0
        tails[n] = law.sum()
    return tails


def _reference_hitting(schedule, initial, targets, horizon):
    """Plain per-step vector loop: P{T > n}, n = 0..horizon, for the first
    step T >= 0 in ``targets``."""
    q = np.array(initial, dtype=float)
    tails = np.empty(horizon + 1)
    for n in range(horizon + 1):
        if n:
            q = q @ schedule.at(n - 1)
        q[targets] = 0.0
        tails[n] = q.sum()
    return tails


def _assert_tails_match(res, ref_tails):
    """Within 1e-12 relative where the reference exceeds 1e-280, in [0, 1e-280]
    elsewhere; masses nonnegative and tails nonincreasing."""
    live = ref_tails > 1e-280
    np.testing.assert_allclose(res.tails[live], ref_tails[live], rtol=1e-12, atol=0)
    assert ((res.tails[~live] >= 0) & (res.tails[~live] <= 1e-280)).all()
    assert (res.table.mass >= 0).all()
    assert (np.diff(res.tails) <= 0).all()


@st.composite
def _kernel(draw, n):
    rows = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=n, max_size=n))
    m = np.array(rows)
    empty = m.sum(axis=1) == 0
    m[empty] = np.eye(n)[empty]  # an all-zero draw becomes an absorbing state
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def _schedule(draw, n, targets):
    body = draw(st.lists(_kernel(n), max_size=4))
    tail = draw(st.lists(_kernel(n), min_size=1, max_size=3))
    return KernelSchedule(StateSpace(n, frozenset(targets)), tuple(body), tuple(tail))


class TestBlockedAbsorption:
    """Block propagation against the plain per-step loop ``_reference``."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_per_step_reference(self, data):
        n1, n2 = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
        targets = sorted(data.draw(
            st.lists(st.integers(0, min(n1, n2) - 1), min_size=1, max_size=2, unique=True)))
        s1, s2 = data.draw(_schedule(n1, targets)), data.draw(_schedule(n2, targets))
        i1 = np.eye(n1)[data.draw(st.integers(0, n1 - 1))]
        i2 = np.full(n2, 1.0 / n2)
        horizon = data.draw(st.integers(1, 400))
        res = product_tail(s1, s2, i1, i2, horizon=horizon)
        _assert_tails_match(res, _reference_pair(s1, s2, i1, i2, targets, horizon))
        u1 = np.full(n1, 1.0 / n1)
        hit = hitting_time_distribution(s1, u1, horizon=horizon)
        _assert_tails_match(hit, _reference_hitting(s1, u1, targets, horizon))

    @pytest.mark.parametrize("periods, targets", [((5, 13), [0]), ((1, 1), [0, 1, 2, 3, 4])])
    def test_single_steps_only(self, monkeypatch, periods, targets):
        """A joint period above 64, or 25 target pairs (800 unknowns even at
        S = 32, above the 512 cap), builds no block."""
        from renewalsim import exact

        monkeypatch.setattr(exact, "_block_step", lambda *a: pytest.fail("block step built"))
        rng = np.random.default_rng(5)
        s1, s2 = (
            KernelSchedule(StateSpace(6, frozenset(targets)), (),
                           tuple(rng.dirichlet(np.ones(6), 6) for _ in range(p)))
            for p in periods
        )
        start = delta(6, 5)
        res = product_tail(s1, s2, start, start, horizon=300)
        _assert_tails_match(res, _reference_pair(s1, s2, start, start, targets, 300))

    def test_blocks_only_where_they_pay(self, monkeypatch):
        """Blocks are built only where S (n1^3 + n2^3) is below the single-step
        cost of the steps past the bodies: not for a cap-1000 chain over 2,000
        steps, 32 steps for a cap-50 chain over 2,000 steps, where 64 would
        not pay, and 64 steps for each of exact-slowmix's laws over its 12,000
        steps."""
        from renewalsim import exact

        built = []
        block_step = exact._block_step
        monkeypatch.setattr(exact, "_block_step", lambda *a: built.append(a[3]) or block_step(*a))
        big = birth_death_schedule(1000, [0.75])
        hitting_time_distribution(big, delta(1001, 0), targets=(1000,), horizon=2000)
        assert built == []

        cap50 = birth_death_schedule(50, [0.75])
        hitting_time_distribution(cap50, delta(51, 0), targets=(50,), horizon=2000)
        assert built == [32]

        s1 = birth_death_schedule(99, [0.54, 0.52])
        s2 = birth_death_schedule(99, [0.53])
        i1, i2 = delta(100, 60), delta(100, 40)
        for law in (lambda: product_tail(s1, s2, i1, i2, horizon=12_000),
                    lambda: hitting_time_distribution(s1, i1, horizon=12_000),
                    lambda: hitting_time_distribution(s2, i2, horizon=12_000)):
            built.clear()
            law()
            assert built == [64]

    def test_fast_absorption_keeps_relative_precision(self):
        """Blocks that would absorb most of their live mass rerun as single steps."""
        sched = two_state(0.5, 0.5)
        start = delta(2, 1)
        res = product_tail(sched, sched, start, start, horizon=400)
        _assert_tails_match(res, _reference_pair(sched, sched, start, start, [0], 400))
        hit = hitting_time_distribution(sched, start, horizon=400)
        _assert_tails_match(hit, _reference_hitting(sched, start, [0], 400))

    def test_impossible_first_meetings_get_no_negative_mass(self):
        """Arrivals at 0 come only at even steps and 0 only holds or leaves for
        good, so no first meeting falls on an odd step although the pair can
        sit in (0, 0) then: the block solve's rounding there is clipped at 0."""
        kernel = [[0.3, 0, 0, 0.7], [0, 0, 1, 0], [0.13, 0.87, 0, 0], [0, 0, 0, 1]]
        sched = KernelSchedule(StateSpace(4, frozenset({0})), (), (kernel,))
        start = delta(4, 1)
        res = product_tail(sched, sched, start, start, horizon=400)
        _assert_tails_match(res, _reference_pair(sched, sched, start, start, [0], 400))
        assert res.table.mass[1::2].max() < 1e-18

    def test_exact_slowmix_matches_reference(self):
        """perfbench's exact-slowmix pair over its 12,000 steps."""

        s1 = birth_death_schedule(99, [0.54, 0.52])
        s2 = birth_death_schedule(99, [0.53])
        i1, i2 = delta(100, 60), delta(100, 40)
        res = product_tail(s1, s2, i1, i2, horizon=12_000)
        tails = _reference_pair(s1, s2, i1, i2, [0], 12_000)
        np.testing.assert_allclose(res.tails, tails, rtol=1e-12, atol=0)
        assert res.table.residual == pytest.approx(tails[-1], rel=1e-12, abs=0)
        assert res.conservation_error < 1e-12


class TestSharedSides:
    """The per-side block operators are cached on the schedule object."""

    def test_law_after_a_law_on_another_schedule_of_the_same_shape(self):
        """Same size, target, start and span, other kernels: every law still
        matches the per-step loop, and each schedule gets its own build."""
        from renewalsim import exact

        pairs = [[birth_death_schedule(7, [a], target_set=(7,)) for a in alphas]
                 for alphas in ((0.7, 0.72), (0.75, 0.65))]
        start = delta(8, 0)
        exact._side.cache_clear()
        for s1, s2 in pairs:
            res = product_tail(s1, s2, start, start, horizon=600)
            _assert_tails_match(res, _reference_pair(s1, s2, start, start, [7], 600))
            hit = hitting_time_distribution(s1, start, horizon=600)
            _assert_tails_match(hit, _reference_hitting(s1, start, [7], 600))
        # four chain sides and the hitting law's one-state partner
        assert exact._side.cache_info().misses == 5

    def test_cached_operators_are_read_only(self):
        from renewalsim import exact

        sched = birth_death_schedule(9, [0.6, 0.7])
        for operator in exact._side(sched, (0,), 0, 32):
            with pytest.raises(ValueError, match="read-only"):
                operator[...] = 0.0

    def test_exact_builds_each_side_once(self, monkeypatch, tmp_path):
        """``exact`` on exact-slowmix's pair: its product law and both hitting
        laws share one build per chain (and one for the one-state partner)."""
        import functools
        import json

        from renewalsim import exact
        from renewalsim.cli import main

        built = []
        build = exact._side.__wrapped__
        monkeypatch.setattr(exact, "_side", functools.lru_cache(maxsize=4)(
            lambda *a: built.append(a[0]) or build(*a)))
        chain = lambda alphas: {"birth_death": {"cap": 99, "tail": {
            "kind": "periodic" if isinstance(alphas, list) else "constant", "alphas": alphas}}}
        config = {"version": 1, "name": "exact-slowmix", "target_set": [0],
                  "chain1": chain([0.54, 0.52]), "chain2": chain(0.53),
                  "initial1": {"state": 60}, "initial2": {"state": 40},
                  "seed": 1, "horizon": 12_000, "tail_len": 200}
        path = tmp_path / "exact-slowmix.json"
        path.write_text(json.dumps(config))
        assert main(["exact", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert sorted(s.space.size for s in built) == [1, 100, 100]
        assert len({id(s) for s in built}) == 3


class TestTargetsChecked:
    @pytest.mark.parametrize("targets, message", [
        ((-1,), "subset"), ((2,), "subset"), ((5,), "subset"), ((0.5,), "subset"), ((), "nonempty"),
    ])
    def test_bad_targets_raise(self, targets, message):
        sched = two_state(0.5, 0.5)
        with pytest.raises(ValueError, match=message):
            hitting_time_distribution(sched, [0.0, 1.0], targets=targets, horizon=10)
        with pytest.raises(ValueError, match=message):
            product_tail(sched, sched, [0.0, 1.0], [0.0, 1.0], targets=targets, horizon=10)

    def test_targets_checked_against_the_smaller_chain(self):
        small = two_state(0.5, 0.5)
        big = KernelSchedule(StateSpace(3, frozenset({0})), (), (np.full((3, 3), 1 / 3),))
        with pytest.raises(ValueError, match="subset"):
            product_tail(big, small, delta(3, 0), delta(2, 0), targets=(2,), horizon=10)
