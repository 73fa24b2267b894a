import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    KernelSchedule,
    PeriodicTail,
    SimulationPlan,
    StateSpace,
    birth_death_schedule,
    estimate_joint_renewal,
    extract_renewals,
    periodic_birth_death,
    sample_path,
    simultaneous_renewal_time,
    trial_sequence,
)
from renewalsim.simulate import _draw, _Sampler

from conftest import delta, two_state


class TestSamplePath:
    def test_identity_kernel_is_absorbing(self):
        sched = two_state(1.0, 0.0)  # 0 absorbs; start at 0
        path = sample_path(sched, delta(2, 0), seed=1, horizon=20)
        assert (path == 0).all()

    def test_deterministic_in_seed(self):
        sched = two_state(0.4, 0.7)
        a = sample_path(sched, [0.5, 0.5], seed=42, horizon=50)
        b = sample_path(sched, [0.5, 0.5], seed=42, horizon=50)
        assert np.array_equal(a, b)
        c = sample_path(sched, [0.5, 0.5], seed=43, horizon=50)
        assert not np.array_equal(a, c)

    def test_deterministic_alternating_kernel(self, flip_flop):
        path = sample_path(flip_flop, delta(2, 0), seed=5, horizon=9)
        assert np.array_equal(path, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1])

    def test_invalid_initial_rejected(self):
        sched = two_state(0.5, 0.5)
        with pytest.raises(ValueError):
            sample_path(sched, [0.5, 0.6], seed=1, horizon=5)
        with pytest.raises(ValueError):
            sample_path(sched, [-0.1, 1.1], seed=1, horizon=5)


class TestBatchedDraw:
    """``_Sampler.draw`` must return what the scalar ``_draw`` returns, state by state."""

    @staticmethod
    def _edge_uniforms(cum):
        # u = 0, each cumulative value, the float just below it, and a few in between
        us = [0.0, *cum, *np.nextafter(cum, -1.0), *np.linspace(0.0, 1.0, 7, endpoint=False)]
        return [u for u in us if 0.0 <= u < 1.0]

    def _check(self, schedule, steps):
        sampler = _Sampler(schedule)
        for t in range(steps):
            rows = sampler.rows_at(t)
            states, us = [], []
            for x in range(sampler.size):
                edge = self._edge_uniforms(np.asarray(rows[x]))
                states += [x] * len(edge)
                us += edge
            got = sampler.draw(t, np.array(states), np.array(us))
            assert got.tolist() == [_draw(rows[x], u, sampler.size) for x, u in zip(states, us)]

    def test_birth_death_schedule(self):
        spec = periodic_birth_death(12, [0.75, np.linspace(0.55, 0.9, 12)])
        self._check(birth_death_schedule(spec), steps=3)

    def test_dense_schedule_with_short_row(self):
        rng = np.random.default_rng(3)
        dense = rng.random((3, 6, 6))
        dense /= dense.sum(axis=2, keepdims=True)
        short = dense[2].copy()
        short[4] = [0.1, 0.2, 0.0, 0.3, 0.2, 0.1999999]  # sums below 1: the clamp applies
        schedule = KernelSchedule(StateSpace(6, frozenset({0, 3})), (dense[0],),
                                  PeriodicTail((dense[1], short)))
        self._check(schedule, steps=3)
        sampler = _Sampler(schedule)
        assert sampler.draw(1, np.array([4]), np.array([0.99999995])).tolist() == [5]


class TestExtractRenewals:
    def test_interior_visits(self):
        gaps, times = extract_renewals([1, 0, 0, 2, 0], {0})
        assert gaps == [1, 1, 2]
        assert times == [1, 2, 4]

    def test_start_inside_target(self):
        gaps, times = extract_renewals([0, 0], {0})
        assert gaps == [0, 1]
        assert times == [0, 1]

    def test_never_hit(self):
        gaps, times = extract_renewals([3, 3, 3], {0})
        assert gaps == [] and times == []


class TestSimultaneousRenewal:
    def test_hand_traced_intersection(self):
        assert simultaneous_renewal_time([0, 2, 5, 7], [0, 3, 5]) == 5

    def test_both_renew_at_one(self):
        assert simultaneous_renewal_time([1, 4], [1, 2]) == 1

    def test_disjoint_positive_times(self):
        assert simultaneous_renewal_time([0, 2, 4], [0, 3, 5]) is None


class TestTrialSequence:
    def test_hand_traced_example(self):
        ts = trial_sequence([0, 2, 5, 7], [0, 3, 5], n0=0)
        assert ts.indices == (1, 1, 2, 2)
        assert ts.gaps == (2, 1, 2, 0)
        assert ts.sums == (2, 3, 5, 5)
        assert ts.first_success == 3
        assert ts.sums[ts.first_success] == simultaneous_renewal_time([0, 2, 5, 7], [0, 3, 5])

    def test_immediate_success(self):
        ts = trial_sequence(list(range(6)), list(range(6)), n0=0)
        assert ts.gaps == (1, 0)
        assert ts.first_success == 1

    def test_censored_when_data_runs_out(self):
        ts = trial_sequence([0, 2, 4], [0, 3, 5], n0=0)
        assert ts.censored

    def test_no_second_renewal_is_censored(self):
        assert trial_sequence([3], [0, 1, 2, 3], n0=0).censored

    def test_n0_skips_short_anchors(self):
        # First anchor must exceed n0 = 1, so it lands on time 2.
        ts = trial_sequence([0, 1, 2, 3], [0, 1, 2, 3], n0=1)
        assert ts.gaps[0] == 2
        assert ts.first_success == 1
        assert ts.sums[-1] == 2

    def test_scan_modes_agree_on_balanced_sequences(self):
        printed = trial_sequence([0, 2, 5, 7], [0, 3, 5], 0, scan="printed")
        timed = trial_sequence([0, 2, 5, 7], [0, 3, 5], 0, scan="time")
        assert printed == timed

    def test_printed_scan_can_overshoot_the_meeting(self):
        # chain 1 renews every step, chain 2 only at 1 and 9: they meet at 1,
        # but the printed scan resumes chain 2 from chain 1's landed index
        tau1 = list(range(10))
        tau2 = [1, 9]
        meet = simultaneous_renewal_time(tau1, tau2)
        assert meet == 1
        timed = trial_sequence(tau1, tau2, 0, scan="time")
        assert timed.sums[-1] == meet
        printed = trial_sequence(tau1, tau2, 0, scan="printed")
        assert printed.sums[-1] > meet

    def test_time_scan_equals_meeting_time_from_target_starts(self):
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 0), delta(2, 0),
                              horizon=300, n_paths=1500, master_seed=31)
        est = estimate_joint_renewal(plan, keep_traces=True, trial_scan="time")
        assert est.censored == 0
        for trace in est.traces:
            assert trace.trials.sums[-1] == trace.meeting_time

    def test_scan_name_validated(self):
        with pytest.raises(ValueError):
            trial_sequence([0, 1], [0, 1], 0, scan="bogus")


def _structural_checks(trace):
    for gaps, times in ((trace.gaps1, trace.renewals1), (trace.gaps2, trace.renewals2)):
        assert list(np.cumsum(gaps)) == list(times)
    trials = trace.trials
    assert all(b >= 0 for b in trials.gaps)
    assert list(np.cumsum(trials.gaps)) == list(trials.sums)
    if trials.first_success is not None:
        assert trials.gaps[trials.first_success] == 0
        assert all(b > 0 for b in trials.gaps[:trials.first_success])
        # landed sums alternate between the two chains' renewal times
        for k, (idx, s) in enumerate(zip(trials.indices, trials.sums)):
            seq = trace.renewals1 if k % 2 == 0 else trace.renewals2
            assert seq[idx] == s
    if trace.meeting_time is not None:
        assert trace.meeting_time in trace.renewals1
        assert trace.meeting_time in trace.renewals2
        positives = {t for t in trace.renewals1 if 0 < t < trace.meeting_time}
        assert not (positives & set(trace.renewals2))


class TestEstimateJointRenewal:
    def test_absorbed_in_target_meets_at_one(self, identity_2):
        plan = SimulationPlan(identity_2, identity_2, delta(2, 0), delta(2, 0),
                              horizon=10, n_paths=500, master_seed=3)
        est = estimate_joint_renewal(plan)
        assert est.mean == 1.0
        assert est.se == 0.0
        assert est.censored == 0

    def test_all_censored_status(self, flip_flop):
        # Chain 1 visits 0 at even times, chain 2 at odd times: never together.
        plan = SimulationPlan(flip_flop, flip_flop, delta(2, 0), delta(2, 1),
                              horizon=30, n_paths=50, master_seed=9)
        est = estimate_joint_renewal(plan)
        assert est.status == "all-censored"
        assert est.censoring_rate == 1.0
        assert est.mean_is_lower_bound

    def test_worker_counts_agree_bitwise(self):
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 1),
                              horizon=200, n_paths=400, master_seed=17)
        serial = estimate_joint_renewal(plan, workers=1, keep_traces=True)
        parallel = estimate_joint_renewal(plan, workers=4, keep_traces=True)
        assert serial.mean == parallel.mean
        assert serial.se == parallel.se
        assert np.array_equal(serial.meeting_times, parallel.meeting_times)
        assert np.array_equal(serial.tail, parallel.tail)
        assert serial.traces == parallel.traces

    def test_tail_curve_matches_meeting_times(self):
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 1),
                              horizon=100, n_paths=300, master_seed=23)
        est = estimate_joint_renewal(plan, tail_len=10)
        for n in range(11):
            direct = np.mean([(t < 0 or t > n) for t in est.meeting_times])
            assert est.tail[n] == pytest.approx(direct)

    def test_mismatched_target_sets_rejected(self):
        a = two_state(0.5, 0.5)
        from renewalsim import ConstantTail, KernelSchedule, StateSpace
        b = KernelSchedule(StateSpace(2, frozenset({1})), (), ConstantTail([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            SimulationPlan(a, b, delta(2, 0), delta(2, 0), horizon=5, n_paths=2, master_seed=0)


class TestPathwiseInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_trace_structure_and_bounds(self, seed):
        sched1 = two_state(0.6, 0.55)
        sched2 = two_state(0.45, 0.7)
        plan = SimulationPlan(sched1, sched2, [0.3, 0.7], [0.8, 0.2],
                              horizon=300, n_paths=40, master_seed=seed)
        est = estimate_joint_renewal(plan, keep_traces=True)
        for trace in est.traces:
            _structural_checks(trace)
            if trace.meeting_time is None or trace.trials.first_success is None:
                continue
            theta0_1 = trace.renewals1[0]
            theta0_2 = trace.renewals2[0]
            total = sum(trace.trials.gaps)
            # arbitrary starts: meeting time is capped by first hits plus the trial sums
            assert trace.meeting_time <= theta0_1 + theta0_2 + total

    def test_both_start_in_target_tight_bound(self):
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 0), delta(2, 0),
                              horizon=400, n_paths=2000, master_seed=99)
        est = estimate_joint_renewal(plan, keep_traces=True)
        assert est.censored == 0
        for trace in est.traces:
            trials = trace.trials
            assert trials.first_success is not None
            running = sum(b for n, b in enumerate(trials.gaps) if trials.first_success > n)
            assert trace.meeting_time <= trace.renewals1[0] + running
