import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    KernelSchedule,
    PeriodicTail,
    SimulationPlan,
    StateSpace,
    birth_death_schedule,
    constant_birth_death,
    estimate_joint_renewal,
    hitting_time_distribution,
    periodic_birth_death,
    sample_path,
    trial_sequence,
)
from renewalsim.simulate import _InverseCdf, _Sampler

from conftest import delta, last_trial_sums, two_state
from oracles import (
    _draw,
    extract_renewals,
    joint_renewal_paths,
    joint_renewal_times,
    landing_trials,
    renewal_gaps,
    simultaneous_renewal_time,
)


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


def _scalar_reader(table):
    """The joint estimator's draw: one ``bisect`` over row x's slice of the table's flat lists."""
    values, states, width = table.lists()
    return lambda x, u: states[bisect_right(values, u, x * width, (x + 1) * width)]


class TestBatchedDraw:
    """Both readers of a table, the batch call and the scalar bisect, return
    what the oracle ``_draw`` returns on the row's cumulative sums, state by state."""

    @staticmethod
    def _edge_uniforms(cum):
        # u = 0, each cumulative value, the float just below it, and a few in between
        us = [0.0, *cum, *np.nextafter(cum, -1.0), *np.linspace(0.0, 1.0, 7, endpoint=False)]
        return [u for u in us if 0.0 <= u < 1.0]

    def _check_table(self, table, kernel):
        size = kernel.shape[1]
        states, us, expected = [], [], []
        for x, row in enumerate(kernel):
            cum = np.cumsum(row)
            edge = self._edge_uniforms(cum)
            states += [x] * len(edge)
            us += edge
            expected += [_draw(cum, u, size) for u in edge]
        assert table(np.array(states, dtype=np.int64), np.array(us)).tolist() == expected
        scalar = _scalar_reader(table)
        assert [scalar(x, u) for x, u in zip(states, us)] == expected

    def _check(self, schedule, steps):
        sampler = _Sampler(schedule)
        for t in range(steps):
            self._check_table(sampler.tables[sampler.phase(t)], schedule.at(t))

    def test_birth_death_schedule(self):
        spec = periodic_birth_death(12, [0.75, np.linspace(0.55, 0.9, 12)])
        self._check(birth_death_schedule(spec), steps=3)

    def test_dense_schedule_with_short_row(self):
        rng = np.random.default_rng(3)
        dense = rng.random((3, 6, 6))
        dense /= dense.sum(axis=2, keepdims=True)
        short = dense[2].copy()
        short[4] = [0.1, 0.2, 0.0, 0.3, 0.2, 0.1999999]  # sums below 1: the last state takes the rest
        schedule = KernelSchedule(StateSpace(6, frozenset({0, 3})), (dense[0],),
                                  PeriodicTail((dense[1], short)))
        self._check(schedule, steps=3)
        sampler = _Sampler(schedule)
        assert sampler.draw(1, np.array([4]), np.array([0.99999995])).tolist() == [5]
        assert _scalar_reader(sampler.tables[sampler.phase(1)])(4, 0.99999995) == 5

    @staticmethod
    def _random_rows(rng, shape, zero_frac, short_frac):
        """Rows with zero runs mid-row (each entry zero w.p. ``zero_frac``) and
        at the row end (past a random cut); a ``short_frac`` share sums below 1."""
        weights = rng.random(shape) * (rng.random(shape) >= zero_frac)
        size = shape[-1]
        cut = rng.integers(1, size + 1, size=shape[:-1])
        weights[np.arange(size) >= cut[..., None]] = 0.0
        empty = weights.sum(axis=-1) == 0.0
        weights[..., 0][empty] = 1.0
        rows = weights / weights.sum(axis=-1, keepdims=True)
        short = rng.random(shape[:-1]) < short_frac
        rows[short] *= rng.uniform(0.5, 1.0, size=(int(short.sum()), 1))
        return rows

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 30),
        phases=st.integers(1, 3),
        zero_frac=st.floats(0.0, 0.9),
        short_frac=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_kernels_match_the_scalar_draw(self, size, phases, zero_frac, short_frac, seed):
        rng = np.random.default_rng(seed)
        mats = self._random_rows(rng, (phases, size, size), zero_frac, short_frac)
        self._check(KernelSchedule(StateSpace(size, frozenset({0})), (), PeriodicTail(tuple(mats))), phases)
        init = self._random_rows(rng, (1, size), zero_frac, short_frac)
        self._check_table(_InverseCdf(init, "initial law"), init)

    def test_sampler_holds_no_per_row_lists(self):
        schedule = birth_death_schedule(constant_birth_death(1000, 0.75))
        tracemalloc.start()
        try:
            sampler = _Sampler(schedule)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sampler.tables) == 1
        assert held < 2**20


class TestJointOracle:
    """``estimate_joint_renewal`` gives the oracle's meeting times and first
    hits path by path: the same stream per path, drawn one cumulative row at a time."""

    @staticmethod
    def _check(plan):
        est = estimate_joint_renewal(plan)
        meeting, hit1, hit2 = joint_renewal_times(plan)
        assert est.meeting_times.tolist() == meeting
        assert est.first_hit1.tolist() == hit1
        assert est.first_hit2.tolist() == hit2
        assert 0 < est.censored < plan.n_paths  # both outcomes occur

    def test_period_two_birth_death_pair(self):
        schedule1 = birth_death_schedule(periodic_birth_death(6, [0.8, 0.55]))
        schedule2 = birth_death_schedule(periodic_birth_death(6, [0.6, np.linspace(0.5, 0.9, 6)]))
        spread = np.array([0.1, 0.0, 0.2, 0.3, 0.0, 0.15, 0.25])
        self._check(SimulationPlan(schedule1, schedule2, delta(7, 3), spread,
                                   horizon=12, n_paths=400, master_seed=11))

    def test_dense_kernels_with_zero_entries_and_a_short_row(self):
        rng = np.random.default_rng(8)
        mats = rng.random((3, 5, 5))
        mats[:, :, 2] *= rng.random((3, 5)) < 0.5  # zeros mid-row
        mats[:, :, 4] *= rng.random((3, 5)) < 0.5  # zeros at the row end
        mats /= mats.sum(axis=2, keepdims=True)
        mats[1, 3] *= 1.0 - 1e-13  # one short row
        space = StateSpace(5, frozenset({0, 3}))
        schedule1 = KernelSchedule(space, (mats[0],), PeriodicTail((mats[1], mats[2])))
        schedule2 = KernelSchedule(space, (mats[2], mats[1]), PeriodicTail((mats[0],)))
        spread = np.array([0.0, 0.35, 0.25, 0.0, 0.4])
        self._check(SimulationPlan(schedule1, schedule2, spread, spread[::-1].copy(),
                                   horizon=6, n_paths=400, master_seed=5))

    def test_two_ranges_past_one_key_chunk(self, monkeypatch):
        """The second worker's range starts at path 1,050, inside a chunk of
        stream keys, and each range ends in a short chunk."""
        from renewalsim import simulate

        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two ranges on any host
        assert simulate.KEY_CHUNK < 1050
        schedule1 = birth_death_schedule(periodic_birth_death(6, [0.8, 0.55]))
        schedule2 = birth_death_schedule(periodic_birth_death(6, [0.6, np.linspace(0.5, 0.9, 6)]))
        plan = SimulationPlan(schedule1, schedule2, delta(7, 3), delta(7, 2),
                              horizon=6, n_paths=2100, master_seed=11)
        est = estimate_joint_renewal(plan, workers=2)
        got = (est.meeting_times.tolist(), est.first_hit1.tolist(), est.first_hit2.tolist())
        assert got == joint_renewal_times(plan)
        assert 0 < est.censored < plan.n_paths


class TestInvalidKernel:
    """A non-finite or negative kernel or initial-law entry is rejected before any draw."""

    @staticmethod
    def _schedule(bad_row):
        good = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 1.0, 0.0]]
        bad = [good[0], bad_row, good[2]]
        return KernelSchedule(StateSpace(3, frozenset({0})), (np.array(good),), PeriodicTail((np.array(bad),)))

    @pytest.mark.parametrize("bad_row", [[1.2, -0.2, 0.0], [np.nan, 0.5, 0.5], [0.5, np.inf, 0.0]])
    def test_every_sampler_rejects_it(self, bad_row):
        schedule = self._schedule(bad_row)
        with pytest.raises(ValueError, match=r"tail\[0\], row 1: entry [01] is "):
            sample_path(schedule, delta(3, 0), seed=1, horizon=10)
        plan = SimulationPlan(schedule, schedule, delta(3, 0), delta(3, 0), horizon=10, n_paths=2, master_seed=1)
        with pytest.raises(ValueError, match=r"tail\[0\], row 1"):
            estimate_joint_renewal(plan)

    def test_nan_initial_law_rejected(self):
        with pytest.raises(ValueError, match=r"initial law, row 0: entry 0 is nan"):
            sample_path(two_state(0.5, 0.5), [np.nan, 1.0], seed=1, horizon=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_law_rejected_before_any_work(self, bad):
        schedule = two_state(0.5, 0.5)
        message = rf"initial law, row 0: entry 1 is {bad}"
        with pytest.raises(ValueError, match=message):
            SimulationPlan(schedule, schedule, delta(2, 0), [0.0, bad], horizon=5, n_paths=2, master_seed=1)
        with pytest.raises(ValueError, match=message):
            hitting_time_distribution(schedule, [0.0, bad], horizon=5)

    def test_valid_kernel_accepted(self):
        path = sample_path(self._schedule([0.25, 0.5, 0.25]), delta(3, 0), seed=1, horizon=10)
        assert path.shape == (11,)


class TestPhaseRule:
    """``schedule.at`` with the oracle ``_draw``, and both readers of ``_Sampler``, pick the same phase."""

    @staticmethod
    def _schedule():
        # phase k sends every state to state k, so each step shows its phase:
        # two body matrices, then a period-3 cycle
        mats = [np.tile(np.eye(5)[k], (5, 1)) for k in range(5)]
        return KernelSchedule(StateSpace(5, frozenset({0})), tuple(mats[:2]), PeriodicTail(tuple(mats[2:])))

    @staticmethod
    def _disagreements(schedule, sampler, steps=31):
        states = np.arange(schedule.space.size)
        out = []
        for t in range(steps):
            expected = t if t < 2 else 2 + t % 3
            scalar = _scalar_reader(sampler.tables[sampler.phase(t)])
            picked = {
                "at": {_draw(np.cumsum(row), 0.5, len(row)) for row in schedule.at(t)},
                "scalar": {scalar(x, 0.5) for x in states.tolist()},
                "draw": set(sampler.draw(t, states, np.full(len(states), 0.5)).tolist()),
            }
            out += [(t, name) for name, got in picked.items() if got != {expected}]
        return out

    def test_every_reader_picks_the_schedule_phase(self):
        schedule = self._schedule()
        assert len(schedule.phases) == 5
        assert [schedule.phase(t) for t in range(8)] == [0, 1, 4, 2, 3, 4, 2, 3]
        assert self._disagreements(schedule, _Sampler(schedule)) == []

    def test_tail_anchored_at_body_end_is_caught(self):
        schedule = self._schedule()
        wrong = _Sampler(schedule)
        wrong.phase = lambda t: t if t < 2 else 2 + (t - 2) % 3
        assert {name for _, name in self._disagreements(schedule, wrong)} == {"scalar", "draw"}


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
        est = estimate_joint_renewal(plan, trial_scan="time")
        assert est.censored == 0
        assert np.array_equal(last_trial_sums(est), est.meeting_times)

    def test_scan_name_validated(self):
        with pytest.raises(ValueError):
            trial_sequence([0, 1], [0, 1], 0, scan="bogus")

    renewal_times = st.builds(
        lambda start, gaps: np.cumsum([start, *gaps]).tolist(),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=1, max_value=4), max_size=12),
    )

    @settings(max_examples=300, deadline=None)
    @given(renewal_times, renewal_times, st.integers(min_value=0, max_value=3),
           st.sampled_from(["printed", "time"]))
    def test_success_on_a_prefix_is_the_full_scans_success(self, tau1, tau2, n0, scan):
        """Why the estimator scans only at joint renewals: a scan on the
        renewals up to t succeeds exactly when the full scan succeeds by t,
        with the same result, landing on a renewal of both chains."""
        full = trial_sequence(tau1, tau2, n0, scan)
        assert full == landing_trials(tau1, tau2, n0, scan)
        for t in range(max(tau1[-1], tau2[-1]) + 2):
            cut = trial_sequence([x for x in tau1 if x <= t], [x for x in tau2 if x <= t], n0, scan)
            by_t = not full.censored and full.sums[full.first_success] <= t
            assert (not cut.censored) == by_t
            if by_t:
                assert cut == full
                assert cut.sums[cut.first_success] in set(tau1) & set(tau2)

    @settings(max_examples=300, deadline=None)
    @given(renewal_times, renewal_times, st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=3), st.sampled_from(["printed", "time"]))
    def test_resumed_scan_is_the_full_scan(self, tau1, tau2, c, n0, scan):
        """What the estimator's resumed scans rely on: continuing an
        unresolved scan on the lists cut at c gives the full scan."""
        cut = trial_sequence([x for x in tau1 if x <= c], [x for x in tau2 if x <= c], n0, scan)
        if cut.censored:
            assert trial_sequence(tau1, tau2, n0, scan, resume=cut) == trial_sequence(tau1, tau2, n0, scan)


PER_PATH_ARRAYS = ("meeting_times", "first_hit1", "first_hit2", "trials_to_success", "trial_sums", "trial_lengths")


def _structural_checks(renewals1, renewals2, meeting, trials):
    """Checks on one path of :func:`oracles.joint_renewal_paths`."""
    for times in (renewals1, renewals2):
        assert list(np.cumsum(renewal_gaps(times))) == list(times)
    assert all(b >= 0 for b in trials.gaps)
    assert list(np.cumsum(trials.gaps)) == list(trials.sums)
    if trials.first_success is not None:
        assert trials.gaps[trials.first_success] == 0
        assert all(b > 0 for b in trials.gaps[:trials.first_success])
        # landed sums alternate between the two chains' renewal times
        for k, (idx, s) in enumerate(zip(trials.indices, trials.sums)):
            seq = renewals1 if k % 2 == 0 else renewals2
            assert seq[idx] == s
    if meeting >= 0:
        assert meeting in renewals1
        assert meeting in renewals2
        positives = {t for t in renewals1 if 0 < t < meeting}
        assert not (positives & set(renewals2))


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
        serial = estimate_joint_renewal(plan, workers=1)
        parallel = estimate_joint_renewal(plan, workers=4)
        assert serial.mean == parallel.mean
        assert serial.se == parallel.se
        for name in PER_PATH_ARRAYS + ("tail",):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name))

    def test_pool_starts_at_most_one_process_per_cpu(self, monkeypatch):
        """No process is started: a stand-in pool records its size and runs inline."""
        import concurrent.futures
        from concurrent.futures import Future

        sizes, submitted = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(None)
                future = Future()
                future.set_result(fn(*args))
                return future

        # the pool branch imports the pool class from concurrent.futures when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 0),
                              horizon=50, n_paths=30, master_seed=13)
        serial = estimate_joint_renewal(plan, workers=1)
        pooled = estimate_joint_renewal(plan, workers=10_000)
        assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)
        # one range per process: each range pickles the plan and rebuilds the step tables
        assert len(submitted) == sizes[0]
        for name in PER_PATH_ARRAYS + ("tail",):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))

    def test_cli_import_leaves_the_process_pool_out(self):
        """Only a run with more than one worker imports the pool, and with it multiprocessing."""
        from renewalsim import simulate

        code = "import sys, renewalsim.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(simulate.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("scan", ["printed", "time"])
    @pytest.mark.parametrize("n0", [0, 2])
    def test_flat_trial_arrays_equal_the_traces(self, scan, n0):
        """Every per-path array, at one worker and at four, equals the oracle's
        traces: each path stepped to the horizon and scanned once in full."""
        # the short horizon leaves some paths censored, some scans unresolved
        sched = two_state(0.5, 0.1)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 0),
                              horizon=12, n_paths=300, master_seed=41)
        serial = estimate_joint_renewal(plan, workers=1, n0=n0, trial_scan=scan)
        parallel = estimate_joint_renewal(plan, workers=4, n0=n0, trial_scan=scan)
        assert 0 < serial.censored < plan.n_paths
        paths = joint_renewal_paths(plan, n0, scan)
        assert any(t.censored and t.sums for *_, t in paths)
        assert any(t.censored and meeting >= 0 for _, _, meeting, t in paths)
        expected = {
            "meeting_times": [meeting for _, _, meeting, _ in paths],
            "first_hit1": [r1[0] if r1 else -1 for r1, *_ in paths],
            "first_hit2": [r2[0] if r2 else -1 for _, r2, *_ in paths],
            "trials_to_success": [-1 if t.censored else t.first_success for *_, t in paths],
            "trial_sums": [s for *_, t in paths for s in t.sums],
            "trial_lengths": [len(t.sums) for *_, t in paths],
        }
        for est in (serial, parallel):
            for name in PER_PATH_ARRAYS:
                assert getattr(est, name).tolist() == expected[name], name

    @pytest.mark.parametrize("scan", ["printed", "time"])
    @pytest.mark.parametrize("n0", [0, 2])
    def test_scans_run_at_joint_renewals_only(self, monkeypatch, scan, n0):
        """One scan per joint renewal t >= 1 up to the first success, plus one
        at the horizon for each path left unresolved."""
        from renewalsim import simulate

        calls = []
        original = simulate.trial_sequence

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "trial_sequence", counting)
        sched = two_state(0.5, 0.1)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 0),
                              horizon=12, n_paths=300, master_seed=41)
        est = estimate_joint_renewal(plan, n0=n0, trial_scan=scan)
        scans = len(calls)
        assert 0 < est.censored < plan.n_paths
        paths = joint_renewal_paths(plan, n0, scan)
        assert any(trials.censored and meeting >= 0 for _, _, meeting, trials in paths)
        joint = unresolved = 0
        for r1, r2, _, trials in paths:
            # the estimator stops stepping at the first success, the last trial sum
            stop = plan.horizon if trials.censored else trials.sums[-1]
            joint += len({t for t in r1 if 1 <= t <= stop} & set(r2))
            unresolved += trials.censored
        assert scans == joint + unresolved

    def test_printed_reading_never_bisects(self, monkeypatch):
        """Only the time reading looks up a scan floor, also in a resumed scan."""
        from renewalsim import simulate

        bisects, resumed = [], []
        original_bisect, original_scan = simulate.bisect_left, simulate.trial_sequence

        def counting_bisect(*args, **kwargs):
            bisects.append(None)
            return original_bisect(*args, **kwargs)

        def counting_scan(*args, resume=None, **kwargs):
            if resume is not None and resume.indices:
                resumed.append(None)
            return original_scan(*args, resume=resume, **kwargs)

        monkeypatch.setattr(simulate, "bisect_left", counting_bisect)
        monkeypatch.setattr(simulate, "trial_sequence", counting_scan)
        sched = two_state(0.5, 0.1)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 0),
                              horizon=12, n_paths=300, master_seed=41)
        estimate_joint_renewal(plan, trial_scan="printed")
        assert resumed and not bisects
        estimate_joint_renewal(plan, trial_scan="time")
        assert bisects

    def test_phase_rule_stays_out_of_the_step_loop(self, monkeypatch):
        """The estimator reads each step's table off the body and the cycle
        itself, so ``KernelSchedule.phase`` calls do not grow with the horizon."""
        calls = []
        original = KernelSchedule.phase

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(KernelSchedule, "phase", counting)
        # state 2 absorbs, so chain 2 never renews and every path runs to the horizon
        mats = [np.array([[0.5, 0.5, 0.0], [0.9, 0.1, 0.0], [0.0, 0.0, 1.0]]),
                np.array([[0.2, 0.8, 0.0], [0.6, 0.4, 0.0], [0.0, 0.0, 1.0]])]
        schedule = KernelSchedule(StateSpace(3, frozenset({0})), (mats[1],), PeriodicTail(tuple(mats)))
        counts = []
        for horizon in (50, 500):
            plan = SimulationPlan(schedule, schedule, delta(3, 1), delta(3, 2),
                                  horizon=horizon, n_paths=20, master_seed=3)
            del calls[:]
            assert estimate_joint_renewal(plan).censored == plan.n_paths
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    def test_tail_curve_matches_meeting_times(self):
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 1),
                              horizon=100, n_paths=300, master_seed=23)
        est = estimate_joint_renewal(plan, tail_len=10)
        for n in range(11):
            direct = np.mean([(t < 0 or t > n) for t in est.meeting_times])
            assert est.tail[n] == pytest.approx(direct)

    def test_tail_counts_censored_paths_at_every_lag(self):
        sched = two_state(0.5, 0.1)
        plan = SimulationPlan(sched, sched, delta(2, 1), delta(2, 1),
                              horizon=12, n_paths=500, master_seed=5)
        est = estimate_joint_renewal(plan, tail_len=plan.horizon)
        assert 0 < est.censored < plan.n_paths
        effective = np.where(est.meeting_times < 0, plan.horizon + 1, est.meeting_times)
        assert len(est.tail) == plan.horizon + 1
        for n in range(plan.horizon + 1):
            assert est.tail[n] == (effective > n).mean()
        # a longer request stops at the horizon; a negative one is refused
        assert np.array_equal(estimate_joint_renewal(plan, tail_len=50).tail, est.tail)
        with pytest.raises(ValueError, match="tail_len"):
            estimate_joint_renewal(plan, tail_len=-1)

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
        paths = joint_renewal_paths(plan)
        for path in paths:
            _structural_checks(*path)
        est = estimate_joint_renewal(plan)
        assert est.meeting_times.tolist() == [meeting for _, _, meeting, _ in paths]
        assert est.trial_sums.tolist() == [s for *_, trials in paths for s in trials.sums]
        done = (est.meeting_times >= 0) & (est.trials_to_success >= 0)
        # arbitrary starts: meeting time is capped by first hits plus the trial sums
        cap = est.first_hit1 + est.first_hit2 + last_trial_sums(est)
        assert (est.meeting_times[done] <= cap[done]).all()

    def test_both_start_in_target_tight_bound(self):
        sched = two_state(0.5, 0.5)
        plan = SimulationPlan(sched, sched, delta(2, 0), delta(2, 0),
                              horizon=400, n_paths=2000, master_seed=99)
        est = estimate_joint_renewal(plan)
        assert est.censored == 0
        assert (est.trials_to_success >= 0).all()
        # the gaps before the first success total the last trial sum, its gap being 0
        assert (est.meeting_times <= est.first_hit1 + last_trial_sums(est)).all()
