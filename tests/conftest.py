import os

import numpy as np
import pytest
from hypothesis import settings

from renewalsim import ConstantTail, KernelSchedule, PeriodicTail, StateSpace

# Tier-1 draws the same examples on every run, so a pass or a failure
# reproduces.  HYPOTHESIS_PROFILE=explore draws fresh random examples, for
# hunting new cases by hand.  Per-test settings (max_examples, deadline)
# apply on top of either profile.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def two_state(p00: float, p10: float) -> KernelSchedule:
    """Homogeneous chain on {0, 1} with target {0}.

    p00 is the stay probability at 0 and p10 the probability of moving
    from 1 back to 0.
    """
    matrix = [[p00, 1.0 - p00], [p10, 1.0 - p10]]
    return KernelSchedule(StateSpace(2, frozenset({0})), (), ConstantTail(matrix))


def periodic_two_state(mats) -> KernelSchedule:
    return KernelSchedule(StateSpace(2, frozenset({0})), (), PeriodicTail(tuple(mats)))


def delta(size: int, state: int) -> np.ndarray:
    out = np.zeros(size)
    out[state] = 1.0
    return out


def last_trial_sums(est) -> np.ndarray:
    """Each path's last landing-trial sum from the estimate's flat arrays, -1 for a path with none."""
    has = est.trial_lengths > 0
    last = np.full(len(has), -1, dtype=np.int64)
    last[has] = est.trial_sums[np.cumsum(est.trial_lengths)[has] - 1]
    return last


@pytest.fixture
def identity_2() -> KernelSchedule:
    return two_state(1.0, 0.0)


@pytest.fixture
def flip_flop() -> KernelSchedule:
    """Deterministic period-2 chain 0 -> 1 -> 0."""
    return two_state(0.0, 1.0)
