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
    TrialStats,
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
    DominationReport,
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
from .simulate import (
    JointRenewalEstimate,
    SimulationPlan,
    TrialSequence,
    estimate_joint_renewal,
    sample_path,
    trial_sequence,
)

__all__ = [
    "BirthDeathSpec",
    "BoundComparison",
    "BoundReport",
    "ConstantTail",
    "DistributionTable",
    "DominatingSequence",
    "DominationReport",
    "ExpectationBracket",
    "HittingResult",
    "JointRenewalEstimate",
    "KernelSchedule",
    "PeriodicTail",
    "RegularityCertificate",
    "RegularityScan",
    "RenewalTailSurface",
    "SimulationPlan",
    "StateSpace",
    "TrialSequence",
    "TrialStats",
    "birth_death_schedule",
    "bound_via_first_moment",
    "bound_via_second_moment",
    "check_domination",
    "compare_bounds",
    "constant_birth_death",
    "domination_valid_for",
    "estimate_joint_renewal",
    "estimate_regularity",
    "estimate_renewal_tails",
    "exact_regularity",
    "expectation_bound",
    "first_return_coefficients",
    "full_report",
    "hitting_time_distribution",
    "meeting_tail_envelope",
    "periodic_birth_death",
    "product_tail",
    "regularity_from_floor",
    "return_floor",
    "sample_path",
    "trial_sequence",
    "trial_statistics",
    "trial_tail_bound",
    "validate_schedule",
    "walk_dominating_sequence",
    "walk_moment1",
    "walk_moment2",
    "walk_return_law",
]
