"""Simultaneous renewal times of time-inhomogeneous Markov chain pairs.

Simulate pairs of independent finite-state chains, extract their renewal
structure and first simultaneous visit to a target set, compute certified
upper bounds on its expectation, and cross-check every bound against exact
small-instance oracles and Monte Carlo estimates.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundComparison,
    BoundReport,
    bound_via_first_moment,
    bound_via_second_moment,
    compare_bounds,
    expectation_bound,
    full_report,
    meeting_tail_envelope,
    trial_statistics,
    trial_tail_bound,
    walk_moment1,
    walk_moment2,
)
from .domination import (
    DominatingSequence,
    RegularityCertificate,
    RegularityScan,
    RenewalTailSurface,
    check_domination,
    domination_valid_for,
    estimate_regularity,
    estimate_renewal_tails,
    exact_regularity,
    first_return_coefficients,
    regularity_from_floor,
    return_floor,
    walk_dominating_sequence,
    walk_return_law,
)
from .exact import (
    DistributionTable,
    ExpectationBracket,
    HittingResult,
    hitting_time_distribution,
    product_tail,
)
from .kernel import (
    KernelSchedule,
    StateSpace,
    birth_death_schedule,
    down_probabilities,
)
from .simulate import (
    JointRenewalEstimate,
    SimulationPlan,
    TrialSequence,
    estimate_joint_renewal,
    sample_path,
    trial_sequence,
)
