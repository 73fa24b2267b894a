import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import KernelSchedule, StateSpace, birth_death_schedule, down_probabilities
from renewalsim import kernel
from renewalsim.kernel import available_memory, check_fits, physical_memory

I2 = np.eye(2)
A = np.array([[0.2, 0.8], [0.6, 0.4]])
B = np.array([[0.5, 0.5], [0.1, 0.9]])
D = np.array([[0.9, 0.1], [0.3, 0.7]])


def make(body, tail, size=2, targets=(0,)):
    return KernelSchedule(StateSpace(size, frozenset(targets)), tuple(body), tail)


def long_body(phases=2000, cap=50):
    """A (phases, cap) table of down probabilities that decay toward 0.75 with
    t and vary with the state, after the long-body pair's first chain."""
    decay = 0.2 * np.exp(-np.arange(phases) / 300)
    return 0.75 + decay[:, None] * np.linspace(0.5, 1.0, cap)


class TestStateSpace:
    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            StateSpace(3, frozenset())

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            StateSpace(3, frozenset({3}))

    def test_rejects_non_integer_target(self):
        with pytest.raises(ValueError, match="subset"):
            StateSpace(3, frozenset({0.5}))

    @pytest.mark.parametrize("targets", [[True], [0, True], [1, True]])
    def test_rejects_bool_target(self, targets):
        with pytest.raises(ValueError, match="subset"):
            StateSpace(3, targets)


def violations_of(body, tail, size=2):
    """The violations a schedule's construction raises with, or [] if it builds."""
    try:
        make(body, tail, size)
    except kernel.KernelError as err:
        return list(err.args)
    return []


class TestValidate:
    """Construction runs the kernel rule and lists every violation."""

    def test_identity_schedule_is_valid(self):
        assert violations_of([], (I2,)) == []

    def test_bad_row_sum_is_reported(self):
        assert violations_of([[[0.6, 0.5], [0.5, 0.5]]], (I2,)) == [
            "body[0], row 0: sums to 1.1, not 1"]

    def test_negative_entry_is_reported(self):
        assert violations_of([], ([[1.1, -0.1], [0.5, 0.5]],)) == [
            "tail[0], row 0: entry 1 is -0.1; entries must be finite and nonnegative"]

    def test_shape_mismatch_is_reported(self):
        assert violations_of([np.eye(3)], (I2,)) == ["body[0]: expected shape (2, 2), got (3, 3)"]

    def test_non_finite_entry_is_reported(self):
        for value in (float("nan"), float("inf")):
            assert violations_of([], ([[value, 0.5], [0.5, 0.5]],)) == [
                f"tail[0], row 0: entry 0 is {value}; entries must be finite and nonnegative"]


class TestKernelRule:
    """A schedule that is not stochastic raises at construction, naming phase and row."""

    @pytest.mark.parametrize("build, message", [
        # a short row: samplers would give the missing mass to the last state, exact laws would lose it
        (lambda: make([], ([[0.5, 0.5], [0.2, 0.3]],)), r"tail\[0\], row 1: sums to 0.5, not 1"),
        (lambda: make([I2, [[0.5, 0.8], [0.5, 0.5]]], (I2,)), r"body\[1\], row 0: sums to 1.3, not 1"),
        (lambda: make([], (I2, np.full((3, 3), 1 / 3))),
         r"tail\[1\]: expected shape \(2, 2\), got \(3, 3\)"),
        (lambda: dataclasses.replace(make([A], (B,)), tail=([[0.5, 0.5], [0.2, 0.3]],)),
         r"tail\[0\], row 1: sums to 0.5, not 1"),
        # rows of different lengths, or a row holding a list, have no shape to stack
        (lambda: make([[[0.5, 0.5], [1.0]]], ([[0.5, [0.5]], [0.5, 0.5]],)),
         r"body\[0\]: expected shape \(2, 2\), got ragged rows; tail\[0\]: expected shape \(2, 2\), got ragged rows"),
    ], ids=["short-row", "long-row", "wrong-size", "replace", "ragged"])
    def test_is_rejected_at_construction(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_every_violation_is_listed(self):
        bad = [[0.5, 0.5], [0.2, float("nan")]]
        with pytest.raises(kernel.KernelError) as caught:
            make([[[0.7, 0.7], [0.5, 0.5]]], (A, bad))
        assert caught.value.args == (
            "body[0], row 0: sums to 1.4, not 1",
            "tail[1], row 1: entry 1 is nan; entries must be finite and nonnegative",
        )
        assert str(caught.value) == "; ".join(caught.value.args)

    def test_wrong_shape_and_bad_row_are_listed_in_phase_order(self):
        short = [[0.5, 0.5], [0.2, 0.3]]
        assert violations_of([np.eye(3)], (I2, short)) == [
            "body[0]: expected shape (2, 2), got (3, 3)",
            "tail[1], row 1: sums to 0.5, not 1",
        ]
        assert violations_of([short], (I2, np.eye(3))) == [
            "body[0], row 1: sums to 0.5, not 1",
            "tail[1]: expected shape (2, 2), got (3, 3)",
        ]

    def test_one_bad_row_in_a_long_body_is_named(self):
        mats = np.array(birth_death_schedule(50, [0.75], body=long_body()).phases)
        mats[1500, 7, 6] += 1e-9
        with pytest.raises(kernel.KernelError) as caught:
            KernelSchedule(StateSpace(51, frozenset({0})), tuple(mats[:2000]), tuple(mats[2000:]))
        assert caught.value.args == ("body[1500], row 7: sums to 1.000000001, not 1",)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(size=st.integers(1, 300), n_body=st.integers(0, 3), period=st.integers(1, 3),
           zero_frac=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_every_row_normalized_kernel_is_accepted(self, size, n_body, period, zero_frac, seed):
        """Rows divided by their sums, with zero runs mid-row and at the row end,
        stay within ROW_SUM_TOL of 1."""
        rng = np.random.default_rng(seed)
        shape = (n_body + period, size, size)
        weights = rng.random(shape) * (rng.random(shape) >= zero_frac)
        weights[np.arange(size) >= rng.integers(1, size + 1, size=shape[:2])[..., None]] = 0.0
        weights[..., 0][weights.sum(axis=-1) == 0.0] = 1.0
        mats = weights / weights.sum(axis=-1, keepdims=True)
        make(mats[:n_body], tuple(mats[n_body:]), size)


class TestKernelAt:
    def test_body_takes_precedence(self):
        sched = make([A], (B,))
        assert np.array_equal(sched.at(0), A)

    def test_periodic_tail_indexes_by_absolute_time(self):
        sched = make([A], (B, D))
        assert np.array_equal(sched.at(3), D)
        assert np.array_equal(sched.at(2), B)

    def test_constant_tail_reaches_far(self):
        sched = make([], (B,))
        assert np.array_equal(sched.at(10**6), B)

    def test_periodic_invariance_past_body(self):
        sched = make([A], (B, D))
        period = len(sched.tail)
        for t in range(1, 40):
            assert np.array_equal(sched.at(t), sched.at(t + period))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make([], (I2,)).at(-1)


class TestBirthDeath:
    def test_constant_rows(self):
        sched = birth_death_schedule(3, [0.75])
        m = sched.at(0)
        assert np.allclose(m[1], [0.75, 0.0, 0.25, 0.0])
        assert np.allclose(m[0], [0.75, 0.25, 0.0, 0.0])
        assert np.allclose(m[3], [0.0, 0.0, 1.0, 0.0])

    def test_rows_have_at_most_two_nonzeros_and_sum_to_one(self):
        sched = birth_death_schedule(6, [0.7, 0.8])
        for t in range(4):
            m = sched.at(t)
            assert ((m != 0).sum(axis=1) <= 2).all()
            assert np.array_equal(m.sum(axis=1), np.ones(7))

    def test_periodic_alphas_cycle(self):
        sched = birth_death_schedule(4, [0.7, 0.8])  # state 2 steps down to 1 w.p. alpha(t, 2)
        assert sched.at(0)[2, 1] == 0.7
        assert sched.at(1)[2, 1] == 0.8
        assert sched.at(2)[2, 1] == 0.7

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^tail\[0\]: down probabilities must lie strictly in \(0, 1\)$"):
            birth_death_schedule(3, [1.0])
        with pytest.raises(ValueError, match=r"^body\[1\]: down probabilities must lie strictly in \(0, 1\)$"):
            birth_death_schedule(3, [0.5], body=[0.5, 0.0])

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            birth_death_schedule(3, [float("nan")])

    def test_cap_too_small_rejected(self):
        with pytest.raises(ValueError, match="^cap must be at least 2$"):
            birth_death_schedule(1, [0.7])

    def test_row_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"^tail\[1\]: expected shape \(3,\), got \(2,\)$"):
            birth_death_schedule(3, [0.7, [0.7, 0.8]])

    def test_extrema_over_body_and_tail(self):
        alphas = down_probabilities(birth_death_schedule(
            3,
            (np.array([0.7, 0.75, 0.8]), np.array([0.8, 0.72, 0.9])),
            body=(np.array([0.9, 0.8, 0.85]),),
        ))
        assert alphas[:, 0].min() == 0.7
        assert alphas.min() == 0.7

    @given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=2, max_value=12))
    def test_generated_rows_always_validate(self, alpha, cap):
        # construction runs the kernel rule
        sched = birth_death_schedule(cap, [alpha])
        assert np.allclose(sched.at(0).sum(axis=1), 1.0, rtol=0.0, atol=kernel.ROW_SUM_TOL)



class TestDownProbabilities:
    """``down_probabilities`` reads a birth-death chain back off its kernels, and nothing else."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_reads_back_the_rows_it_was_built_from(self, data):
        cap = data.draw(st.integers(2, 12), label="cap")
        alpha = st.floats(0.01, 0.99)
        entry = alpha | st.lists(alpha, min_size=cap, max_size=cap)
        body = data.draw(st.lists(entry, max_size=3), label="body")
        cycle = data.draw(st.lists(entry, min_size=1, max_size=3), label="cycle")
        sched = birth_death_schedule(cap, cycle, body=body)
        rows = np.array([np.broadcast_to(np.asarray(a, dtype=float), cap) for a in (*body, *cycle)])
        assert np.array_equal(down_probabilities(sched), rows)

        edited = {}

        def changed(edit):
            phases = [m.copy() for m in sched.phases]
            k = data.draw(st.integers(0, len(phases) - 1), label="phase")
            edited.update(phase=k, row=data.draw(st.integers(0, cap), label="row"))
            edit(phases[k], edited["row"])
            return KernelSchedule(sched.space, phases[:len(body)], phases[len(body):])

        def reached(x):  # the columns a birth-death step from state x reaches
            return {0: [0, 1], cap: [cap - 1]}.get(x, [x - 1, x + 1])

        def perturb(inside):  # one entry, by less than the row-sum tolerance
            def edit(m, x):
                columns = [y for y in range(cap + 1) if (y in reached(x)) == inside]
                edited["column"] = y = data.draw(st.sampled_from(columns), label="column")
                m[x, y] += 1e-13
                edited["value"] = m[x, y]
            return edit

        def jump(m, x):  # half of a move to a state no birth-death step reaches
            y = data.draw(st.sampled_from(np.flatnonzero(m[x] == 0).tolist()), label="column")
            z = np.flatnonzero(m[x])[0]
            m[x, y] = m[x, z] / 2
            m[x, z] -= m[x, y]

        moved = down_probabilities(changed(perturb(inside=True)))
        k, x, y = edited["phase"], edited["row"], edited["column"]
        expected = rows.copy()
        if 0 < x < cap and y == x - 1 or x == y == 0:  # a down entry: alpha(k, x) moved
            expected[k, x] = edited["value"]
        assert np.array_equal(moved, expected)
        assert down_probabilities(changed(perturb(inside=False))) is None
        assert down_probabilities(changed(jump)) is None

    def test_reads_a_long_body_back_exactly(self):
        body = long_body()
        sched = birth_death_schedule(50, [0.75, 0.8], body=body)
        assert np.array_equal(down_probabilities(sched), np.vstack([body, np.full((2, 50), [[0.75], [0.8]])]))

    def test_two_states_are_not_a_birth_death_chain(self):
        # the cap-1 matrix of birth_death_schedule's rule, which it refuses to build
        assert down_probabilities(make([], ([[0.75, 0.25], [1.0, 0.0]],))) is None

    def test_down_probability_one_is_not_read(self):
        assert down_probabilities(make([], ([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],), 3)) is None

class TestMemoryRule:
    def test_physical_memory_is_positive_or_unknown(self):
        total = physical_memory()
        assert total is None or total > 0

    def test_unknown_where_sysconf_cannot_tell(self, monkeypatch):
        def fail(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(kernel.os, "sysconf", fail)
        assert physical_memory() is None
        monkeypatch.setattr(kernel.os, "sysconf", lambda name: -1)
        assert physical_memory() is None

    def test_a_count_past_memory_is_a_memory_error(self, monkeypatch):
        monkeypatch.setattr(kernel, "physical_memory", lambda: 2**20)
        check_fits(2**20, "exactly all of it")
        with pytest.raises(MemoryError, match="cannot allocate one byte more"):
            check_fits(2**20 + 1, "one byte more")

    def test_no_rule_where_memory_is_unknown(self, monkeypatch):
        monkeypatch.setattr(kernel, "physical_memory", lambda: None)
        check_fits(10**30, "more than any host has")

    def test_available_memory_is_at_most_physical(self):
        free, total = available_memory(), physical_memory()
        assert free is None or total is None or 0 < free <= total

    @staticmethod
    def _peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_building_a_long_body_peaks_within_the_loaders_rule(self):
        """The loader's rule (``build_bytes``) covers what building the long
        body's 2,001 cap-50 kernels peaks at: from its down probabilities, and
        from explicit float matrices made inside the measurement."""
        body = long_body()
        rule = kernel.build_bytes(2001, 51)
        assert self._peak(lambda: birth_death_schedule(50, [0.75], body=body)) <= rule
        mats = np.array(birth_death_schedule(50, [0.75], body=body).phases)

        def explicit():
            copies = [np.array(m) for m in mats]
            return KernelSchedule(StateSpace(51, frozenset({0})), tuple(copies[:2000]), tuple(copies[2000:]))

        assert self._peak(explicit) <= rule

    def test_step_counts_near_a_billion_are_refused_before_any_work(self, monkeypatch):
        """Both step counts fail the rule on 8 GiB free before any array or loop
        over them starts; on any host they would need 24 GB of tables."""
        from renewalsim import hitting_time_distribution, walk_dominating_sequence

        monkeypatch.setattr(kernel, "available_memory", lambda: 8 * 2**30)
        with pytest.raises(MemoryError, match="available memory"):
            walk_dominating_sequence(0.75, 10**9)
        with pytest.raises(MemoryError, match="available memory"):
            hitting_time_distribution(make([], (A,)), [1.0, 0.0], horizon=10**9)
