import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    BirthDeathSpec,
    ConstantTail,
    KernelSchedule,
    PeriodicTail,
    StateSpace,
    birth_death_schedule,
    constant_birth_death,
    periodic_birth_death,
)
from renewalsim import kernel
from renewalsim.kernel import available_memory, check_fits, physical_memory

I2 = np.eye(2)
A = np.array([[0.2, 0.8], [0.6, 0.4]])
B = np.array([[0.5, 0.5], [0.1, 0.9]])
D = np.array([[0.9, 0.1], [0.3, 0.7]])


def make(body, tail, size=2, targets=(0,)):
    return KernelSchedule(StateSpace(size, frozenset(targets)), tuple(body), tail)


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
        assert violations_of([], ConstantTail(I2)) == []

    def test_bad_row_sum_is_reported(self):
        assert violations_of([[[0.6, 0.5], [0.5, 0.5]]], ConstantTail(I2)) == [
            "body[0], row 0: sums to 1.1, not 1"]

    def test_negative_entry_is_reported(self):
        assert violations_of([], ConstantTail([[1.1, -0.1], [0.5, 0.5]])) == [
            "tail[0], row 0: entry 1 is -0.1; entries must be finite and nonnegative"]

    def test_shape_mismatch_is_reported(self):
        assert violations_of([np.eye(3)], ConstantTail(I2)) == ["body[0]: expected shape (2, 2), got (3, 3)"]

    def test_non_finite_entry_is_reported(self):
        for value in (float("nan"), float("inf")):
            assert violations_of([], ConstantTail([[value, 0.5], [0.5, 0.5]])) == [
                f"tail[0], row 0: entry 0 is {value}; entries must be finite and nonnegative"]


class TestKernelRule:
    """A schedule that is not stochastic raises at construction, naming phase and row."""

    @pytest.mark.parametrize("build, message", [
        # a short row: samplers would give the missing mass to the last state, exact laws would lose it
        (lambda: make([], ConstantTail([[0.5, 0.5], [0.2, 0.3]])), r"tail\[0\], row 1: sums to 0.5, not 1"),
        (lambda: make([I2, [[0.5, 0.8], [0.5, 0.5]]], ConstantTail(I2)), r"body\[1\], row 0: sums to 1.3, not 1"),
        (lambda: make([], PeriodicTail((I2, np.full((3, 3), 1 / 3)))),
         r"tail\[1\]: expected shape \(2, 2\), got \(3, 3\)"),
        (lambda: dataclasses.replace(make([A], ConstantTail(B)), tail=ConstantTail([[0.5, 0.5], [0.2, 0.3]])),
         r"tail\[0\], row 1: sums to 0.5, not 1"),
    ], ids=["short-row", "long-row", "wrong-size", "replace"])
    def test_is_rejected_at_construction(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_every_violation_is_listed(self):
        bad = [[0.5, 0.5], [0.2, float("nan")]]
        with pytest.raises(kernel.KernelError) as caught:
            make([[[0.7, 0.7], [0.5, 0.5]]], PeriodicTail((A, bad)))
        assert caught.value.args == (
            "body[0], row 0: sums to 1.4, not 1",
            "tail[1], row 1: entry 1 is nan; entries must be finite and nonnegative",
        )
        assert str(caught.value) == "; ".join(caught.value.args)

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
        make(mats[:n_body], PeriodicTail(tuple(mats[n_body:])), size)


class TestKernelAt:
    def test_body_takes_precedence(self):
        sched = make([A], ConstantTail(B))
        assert np.array_equal(sched.at(0), A)

    def test_periodic_tail_indexes_by_absolute_time(self):
        sched = make([A], PeriodicTail((B, D)))
        assert np.array_equal(sched.at(3), D)
        assert np.array_equal(sched.at(2), B)

    def test_constant_tail_reaches_far(self):
        sched = make([], ConstantTail(B))
        assert np.array_equal(sched.at(10**6), B)

    def test_periodic_invariance_past_body(self):
        sched = make([A], PeriodicTail((B, D)))
        period = sched.tail.period
        for t in range(1, 40):
            assert np.array_equal(sched.at(t), sched.at(t + period))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make([], ConstantTail(I2)).at(-1)


class TestBirthDeath:
    def test_constant_rows(self):
        sched = birth_death_schedule(constant_birth_death(3, 0.75))
        m = sched.at(0)
        assert np.allclose(m[1], [0.75, 0.0, 0.25, 0.0])
        assert np.allclose(m[0], [0.75, 0.25, 0.0, 0.0])
        assert np.allclose(m[3], [0.0, 0.0, 1.0, 0.0])

    def test_rows_have_at_most_two_nonzeros_and_sum_to_one(self):
        spec = periodic_birth_death(6, [0.7, 0.8])
        sched = birth_death_schedule(spec)
        for t in range(4):
            m = sched.at(t)
            assert ((m != 0).sum(axis=1) <= 2).all()
            assert np.array_equal(m.sum(axis=1), np.ones(7))

    def test_periodic_alphas_cycle(self):
        spec = periodic_birth_death(4, [0.7, 0.8])
        assert spec.at(0)[2] == 0.7
        assert spec.at(1)[2] == 0.8
        assert spec.at(2)[2] == 0.7

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            constant_birth_death(3, 1.0)
        with pytest.raises(ValueError):
            constant_birth_death(3, 0.0)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            constant_birth_death(3, float("nan"))

    def test_cap_too_small_rejected(self):
        with pytest.raises(ValueError):
            constant_birth_death(1, 0.7)

    def test_extrema_over_body_and_tail(self):
        spec = BirthDeathSpec(
            cap=3,
            body=(np.array([0.9, 0.8, 0.85]),),
            tail=PeriodicTail((np.array([0.7, 0.75, 0.8]), np.array([0.8, 0.72, 0.9]))),
        )
        assert spec.min_alpha_at_zero() == 0.7
        assert spec.inf_alpha() == 0.7

    @given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=2, max_value=12))
    def test_generated_rows_always_validate(self, alpha, cap):
        # construction runs the kernel rule
        sched = birth_death_schedule(constant_birth_death(cap, alpha))
        assert np.allclose(sched.at(0).sum(axis=1), 1.0, rtol=0.0, atol=kernel.ROW_SUM_TOL)


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

    def test_step_counts_near_a_billion_are_refused_before_any_work(self, monkeypatch):
        """Both step counts fail the rule on 8 GiB free before any array or loop
        over them starts; on any host they would need 24 GB of tables."""
        from renewalsim import hitting_time_distribution, walk_dominating_sequence

        monkeypatch.setattr(kernel, "available_memory", lambda: 8 * 2**30)
        with pytest.raises(MemoryError, match="available memory"):
            walk_dominating_sequence(0.75, 10**9)
        with pytest.raises(MemoryError, match="available memory"):
            hitting_time_distribution(make([], ConstantTail(A)), [1.0, 0.0], horizon=10**9)
