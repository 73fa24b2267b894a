import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    DominatingSequence,
    SimulationPlan,
    TrialStats,
    bound_via_first_moment,
    bound_via_second_moment,
    compare_bounds,
    birth_death_schedule,
    estimate_joint_renewal,
    expectation_bound,
    full_report,
    meeting_tail_envelope,
    product_tail,
    trial_statistics,
    trial_tail_bound,
    walk_dominating_sequence,
    walk_moment1,
    walk_moment2,
)

from renewalsim import bounds, kernel

from conftest import delta
from oracles import joint_renewal_paths, trial_table


class TestExpectationBound:
    def test_pinned_values(self):
        assert expectation_bound(0, 0, 0, 1, 2, 0.5) == pytest.approx(6.0, abs=1e-12)
        assert expectation_bound(3, 4, 2, 1.5, 5, 0.25) == pytest.approx(47.0, abs=1e-12)
        assert expectation_bound(0, 0, 0, 1.0, 7.0, 1.0) == pytest.approx(14.0, abs=1e-12)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            expectation_bound(0, 0, 0, 1, 1, 0.0)
        with pytest.raises(ValueError):
            expectation_bound(0, 0, 0, 1, 1, 1.5)

    @given(
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=5),
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_monotone_in_every_argument(self, m1, m2, n0, head, mass, gamma):
        base = expectation_bound(m1, m2, n0, head, mass, gamma)
        assert expectation_bound(m1 + 1, m2, n0, head, mass, gamma) >= base
        assert expectation_bound(m1, m2 + 1, n0, head, mass, gamma) >= base
        assert expectation_bound(m1, m2, n0 + 1, head, mass, gamma) >= base
        assert expectation_bound(m1, m2, n0, head + 1, mass, gamma) >= base
        assert expectation_bound(m1, m2, n0, head, mass + 1, gamma) >= base
        if gamma < 1:
            assert expectation_bound(m1, m2, n0, head, mass, min(gamma + 0.01, 1.0)) <= base


class TestTrialTailBound:
    def test_pinned_values(self):
        assert trial_tail_bound(1.0, 1) == 0.0
        assert trial_tail_bound(1.0, 5) == 0.0
        assert trial_tail_bound(0.5, 3) == pytest.approx(0.125)
        assert trial_tail_bound(0.3, 0) == 1.0
        assert trial_tail_bound(1.0, 0) == 1.0


class TestWalkMoments:
    def test_pinned_values_at_three_quarters(self):
        assert walk_moment1(0.75) == pytest.approx(5.0, abs=1e-12)
        assert walk_moment2(0.75) == pytest.approx(7.0, abs=1e-12)

    def test_bounds_at_pinned_gamma(self):
        e1, m1, m2 = bound_via_second_moment(0.75, 0.1)
        assert e1 == pytest.approx(570.0, abs=1e-10)
        assert (m1, m2) == (pytest.approx(5.0), pytest.approx(7.0))
        assert bound_via_first_moment(0.75, 0.1) == pytest.approx(55.0, abs=1e-12)
        assert bound_via_first_moment(0.75, 1.0) == pytest.approx(10.0, abs=1e-12)

    def test_blows_up_toward_half(self):
        assert bound_via_second_moment(0.5001, 0.5)[0] > 1e4

    def test_domain_enforced(self):
        for bad in (0.5, 1.0):
            with pytest.raises(ValueError):
                walk_moment1(bad)


class TestCompareBounds:
    def test_identity_and_verdict_at_pinned_point(self):
        cmp = compare_bounds(0.75, 0.1)
        assert cmp.identity_residual <= 1e-12
        assert cmp.verdict == "first_moment_tighter"
        assert cmp.first_moment_bound < cmp.second_moment_bound

    def test_identity_on_grid(self):
        for p in (0.6, 0.65, 0.7, 0.75, 0.8):
            for gamma in (0.1, 0.2, 0.3, 0.45):
                cmp = compare_bounds(p, gamma)
                assert cmp.identity_residual <= 1e-12, (p, gamma)

    def test_verdict_withheld_at_gamma_one(self):
        assert compare_bounds(0.75, 1.0).verdict == "withheld"

    def test_golden_ratio_threshold(self):
        below = (math.sqrt(5) - 1) / 2 - 1e-9
        assert compare_bounds(0.75, below).verdict == "first_moment_tighter"
        cmp = compare_bounds(0.75, below)
        assert cmp.first_moment_bound <= cmp.second_moment_bound


class TestMeetingTailEnvelope:
    def _stats(self, table):
        return TrialStats(table=np.asarray(table, float), n_paths=1)

    def test_single_atom(self):
        env = DominatingSequence(values=np.array([1.0, 0.5, 0.25]), head_mass=1.75,
                                 tail_bound=None)
        stats = self._stats([[0.0, 1.0]])  # P(S_0 = 1, running) = 1
        out = meeting_tail_envelope(env, 0, stats, 2)
        assert out[1] == pytest.approx(1.0)  # head value times the unit atom
        assert out[0] == pytest.approx(0.0)
        assert out[2] == pytest.approx(0.5)

    def test_zero_stats_zero_envelope(self):
        env = DominatingSequence(values=np.ones(5), head_mass=5.0, tail_bound=None)
        out = meeting_tail_envelope(env, 0, self._stats(np.zeros((3, 4))), 3)
        assert np.allclose(out, 0.0)

    def test_constant_envelope_factorizes(self):
        env = DominatingSequence(values=np.full(10, 2.0), head_mass=20.0, tail_bound=None)
        table = np.zeros((3, 6))
        table[0, 1] = 0.5
        table[1, 3] = 0.25
        table[2, 5] = 0.125
        out = meeting_tail_envelope(env, 0, self._stats(table), 5)
        sums = table.sum(axis=0)
        for n in range(6):
            assert out[n] == pytest.approx(2.0 * sums[: n + 1].sum())

    def test_negative_index_resolves_to_head(self):
        env = DominatingSequence(values=np.array([4.0, 1.0]), head_mass=5.0, tail_bound=None)
        stats = self._stats([[1.0]])  # all mass at S_0 = 0
        out = meeting_tail_envelope(env, 3, stats, 1)
        # n - j - n0 < 0 for both n, so the head value applies
        assert out[0] == pytest.approx(4.0)
        assert out[1] == pytest.approx(4.0)


def _reference_table(scans, max_sum, max_trials=None):
    """The trial-sum table by a loop over each path's ``TrialSequence``, as trial_statistics once built it."""
    scans = list(scans)
    if max_trials is None:
        max_trials = max((t.first_success for t in scans if t.first_success is not None), default=0)
    table = np.zeros((max_trials + 1, max_sum + 1))
    for trials in scans:
        stop = trials.first_success
        upto = len(trials.sums) - 1 if stop is None else stop
        for k in range(min(upto, max_trials) + 1):
            j = trials.sums[k]
            if j <= max_sum:
                table[k, j] += 1.0
    return table / len(scans)


class TestTrialStatistics:
    def _estimate(self):
        sched = birth_death_schedule(10, [0.75])
        plan = SimulationPlan(sched, sched, delta(11, 0), delta(11, 0),
                              horizon=500, n_paths=400, master_seed=5)
        return estimate_joint_renewal(plan)

    def test_table_masses_are_probabilities(self):
        stats = trial_statistics(self._estimate(), max_sum=50)
        assert (stats.table >= 0).all()
        # row k mass equals P(scan alive at trial k with sum <= 50)
        assert stats.table[0].sum() == pytest.approx(1.0, abs=0.05)
        assert stats.table.sum(axis=1).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("scan", ["printed", "time"])
    @pytest.mark.parametrize("horizon, n0, max_sum, max_trials", [
        (500, 0, 50, None),
        (500, 0, 6, 2),
        (500, 2, 200, 0),
        (500, 2, 30, None),
        (4, 0, 3, None),  # unresolved (censored) scans
        (4, 1, 40, 1),
    ])
    def test_table_equals_the_traces_loop(self, scan, horizon, n0, max_sum, max_trials):
        sched = birth_death_schedule(10, [0.75])
        plan = SimulationPlan(sched, sched, delta(11, 0), delta(11, 0),
                              horizon=horizon, n_paths=400, master_seed=5)
        est = estimate_joint_renewal(plan, n0=n0, trial_scan=scan)
        if horizon == 4:
            assert (est.trials_to_success < 0).any()
        stats = trial_statistics(est, max_sum=max_sum, max_trials=max_trials)
        scans = [trials for *_, trials in joint_renewal_paths(plan, n0, scan)]
        reference = _reference_table(scans, max_sum, max_trials)
        assert stats.table.shape == reference.shape
        assert (stats.table == reference).all()
        assert stats.n_paths == plan.n_paths

    def test_requires_starts_in_target(self):
        sched = birth_death_schedule(10, [0.75])
        plan = SimulationPlan(sched, sched, delta(11, 1), delta(11, 0),
                              horizon=500, n_paths=50, master_seed=5)
        est = estimate_joint_renewal(plan)
        with pytest.raises(ValueError):
            trial_statistics(est, max_sum=20)

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(st.lists(st.integers(0, 12), max_size=9), min_size=1, max_size=12),
        resolved=st.lists(st.booleans(), min_size=12, max_size=12),
        max_sum=st.integers(0, 10),
        max_trials=st.none() | st.integers(0, 8),
        chunk=st.integers(1, 4),
    )
    def test_table_equals_the_one_shot_formula(self, runs, resolved, max_sum, max_trials, chunk):
        """Any runs of sums, chunked a few paths at a time: empty runs, runs
        longer than ``max_trials``, sums above ``max_sum``, one path, and
        chunk boundaries between runs of every length."""
        lengths = np.array([len(run) for run in runs], dtype=np.int64)
        estimate = SimpleNamespace(
            n_paths=len(runs),
            first_hit1=np.zeros(len(runs), dtype=np.int64),
            first_hit2=np.zeros(len(runs), dtype=np.int64),
            trials_to_success=np.array([n - 1 if n and done else -1 for n, done in zip(lengths, resolved)]),
            trial_sums=np.array([j for run in runs for j in run], dtype=np.int64),
            trial_lengths=lengths,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "TRIAL_CHUNK_PATHS", chunk)
            stats = trial_statistics(estimate, max_sum=max_sum, max_trials=max_trials)
        if max_trials is None:
            max_trials = int(estimate.trials_to_success.max(initial=0))
        expected = trial_table(estimate.trial_sums, lengths, len(runs), max_sum, max_trials)
        assert stats.table.shape == expected.shape
        assert (stats.table == expected).all()

    def test_max_sum_past_a_machine_integer_overflows_before_allocating(self):
        with pytest.raises(OverflowError):
            trial_statistics(self._estimate(), max_sum=10**300)

    def test_table_past_physical_memory_is_a_memory_error(self, monkeypatch):
        monkeypatch.setattr(kernel, "physical_memory", lambda: 2**20)
        with pytest.raises(MemoryError, match="cannot allocate the trial table"):
            trial_statistics(self._estimate(), max_sum=2**20)

    def test_peak_memory_stays_near_the_returned_arrays(self):
        """The estimator and the table hold little beyond what they return:
        no copy of the per-path arrays, no index array over all trial sums."""
        sched = birth_death_schedule(50, [0.75])
        plan = SimulationPlan(sched, sched, delta(51, 0), delta(51, 0),
                              horizon=2000, n_paths=10_000, master_seed=20190814)
        tracemalloc.start()
        try:
            est = estimate_joint_renewal(plan, tail_len=200)
            stats = trial_statistics(est, max_sum=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (
            est.meeting_times, est.first_hit1, est.first_hit2, est.trials_to_success,
            est.trial_sums, est.trial_lengths, est.tail, est.tail_se, stats.table,
        ))
        assert peak <= 1.5 * returned


class TestFullReport:
    def test_showcase_instance(self):
        sched = birth_death_schedule(30, [0.75])
        plan = SimulationPlan(sched, sched, delta(31, 0), delta(31, 0),
                              horizon=1000, n_paths=4000, master_seed=12)
        report = full_report(plan, p=0.75, series_len=1000, tail_len=100)
        assert report.bound_holds
        assert math.isfinite(report.bound)
        assert report.gamma == pytest.approx(0.75 ** (5 / 0.75), abs=1e-12)
        assert report.mean_hit1.high == pytest.approx(0.0, abs=1e-9)
        assert report.envelope_head == pytest.approx(4 / 3, abs=1e-12)
        assert report.comparison.verdict == "first_moment_tighter"
        assert report.mc.mean + 3 * report.mc.se < report.bound
        assert report.tail_envelope is not None
        assert report.mc.traces is None  # the table comes from the estimate's arrays
        exact = product_tail(sched, sched, delta(31, 0), delta(31, 0), horizon=100).tails
        # the first-gap term keeps lag 0 at the head value 1/p, above P(T > 0) = 1
        assert report.tail_envelope[0] == pytest.approx(4 / 3, abs=1e-12)
        assert (report.tail_envelope >= exact - 1e-12).all()
        d = report.to_dict()
        assert d["bound"]["provenance"] == "analytic"
        assert d["mc_mean"]["provenance"] == "mc" and "se" in d["mc_mean"]

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_tail_envelope_dominates_the_exact_tail_on_random_pairs(self, data):
        """Criterion 7 beyond the showcase pair: on accepted pairs (every alpha >= p)
        started at 0/0, the tail envelope is at least the product chain's exact
        tail of the meeting time at every lag."""
        p = data.draw(st.floats(0.55, 0.9), label="p")
        cap = data.draw(st.integers(3, 10), label="cap")
        alpha = st.floats(p, 0.999)
        schedules = [
            birth_death_schedule(cap, [
                np.array(data.draw(st.lists(alpha, min_size=cap, max_size=cap)))
                for _ in range(data.draw(st.integers(1, 2), label=f"phases{c}"))
            ])
            for c in (1, 2)
        ]
        start = delta(cap + 1, 0)
        plan = SimulationPlan(*schedules, start, start, horizon=400, n_paths=4000, master_seed=20190814)
        report = full_report(plan, p=p, series_len=400, tail_len=60)
        exact = product_tail(*schedules, start, start, horizon=60).tails
        assert report.tail_envelope.shape == exact.shape
        assert (report.tail_envelope >= exact - 1e-12).all()

    def test_non_target_starts_skip_tail_envelope(self):
        sched = birth_death_schedule(30, [0.75])
        plan = SimulationPlan(sched, sched, delta(31, 4), delta(31, 2),
                              horizon=1500, n_paths=2000, master_seed=3)
        report = full_report(plan, p=0.75, series_len=500, tail_len=50)
        assert report.tail_envelope is None
        assert report.mean_hit1.high > 0
        assert report.bound_holds

    def test_invalid_walk_parameter_rejected_before_simulation(self):
        sched = birth_death_schedule(10, [0.7])  # inf alpha 0.7
        with pytest.raises(ValueError, match="does not apply"):
            full_report(SimulationPlan(sched, sched, delta(11, 0), delta(11, 0),
                                       horizon=100, n_paths=10, master_seed=1), p=0.9)

    def test_upward_drift_side_rejected(self):
        """alpha = 1 - p passed the old p(1-p) >= alpha(1-alpha) test."""
        low = birth_death_schedule(10, [0.18])
        with pytest.raises(ValueError, match="does not apply"):
            full_report(SimulationPlan(low, low, delta(11, 0), delta(11, 0),
                                       horizon=100, n_paths=10, master_seed=1), p=0.82)

    def test_tight_cap_triggers_truncation_warning(self):
        sched = birth_death_schedule(4, [0.6])
        plan = SimulationPlan(sched, sched, delta(5, 3), delta(5, 0), horizon=400, n_paths=500, master_seed=8)
        report = full_report(plan, p=0.6, series_len=300, tail_len=30)
        assert any("truncation" in w for w in report.warnings)

    def test_roomy_cap_has_no_truncation_warning(self):
        sched = birth_death_schedule(40, [0.75])
        plan = SimulationPlan(sched, sched, delta(41, 0), delta(41, 0),
                              horizon=300, n_paths=300, master_seed=8)
        report = full_report(plan, p=0.75, series_len=300, tail_len=30)
        assert not any("truncation" in w for w in report.warnings)
