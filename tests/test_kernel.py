import numpy as np
import pytest
from hypothesis import given, strategies as st

from renewalsim import (
    BirthDeathSpec,
    ConstantTail,
    KernelSchedule,
    PeriodicTail,
    StateSpace,
    birth_death_schedule,
    constant_birth_death,
    periodic_birth_death,
    validate_schedule,
)
from renewalsim import kernel
from renewalsim.kernel import check_fits, physical_memory

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


class TestValidate:
    def test_identity_schedule_is_valid(self):
        assert validate_schedule(make([], ConstantTail(I2))) == []

    def test_bad_row_sum_is_reported(self):
        bad = make([[[0.6, 0.5], [0.5, 0.5]]], ConstantTail(I2))
        violations = validate_schedule(bad)
        assert any("row 0 sums to 1.1" in v for v in violations)

    def test_negative_entry_is_reported(self):
        bad = make([], ConstantTail([[1.1, -0.1], [0.5, 0.5]]))
        violations = validate_schedule(bad)
        assert any("negative entry" in v for v in violations)

    def test_shape_mismatch_is_reported(self):
        bad = make([np.eye(3)], ConstantTail(I2))
        assert any("shape" in v for v in violations_of(bad))

    def test_non_finite_entry_is_reported(self):
        for value in (float("nan"), float("inf")):
            bad = make([], ConstantTail([[value, 0.5], [0.5, 0.5]]))
            assert any("row 0 has a non-finite entry" in v for v in validate_schedule(bad))


def violations_of(schedule):
    return validate_schedule(schedule)


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
        assert validate_schedule(sched) == []

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
        sched = birth_death_schedule(constant_birth_death(cap, alpha))
        assert validate_schedule(sched) == []


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
