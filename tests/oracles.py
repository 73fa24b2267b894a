"""Independent reference routines that only the tests use.

Each one recomputes, by a different or more direct route, something the
package computes on its hot path: the walk's first-return coefficients by
the binomial series, renewal times and gaps straight from a path, the
first simultaneous renewal as a set intersection, and the mass defect of a
distribution table.
"""

from typing import Iterable, Sequence

import numpy as np

from renewalsim.domination import _check_walk_parameter
from renewalsim.exact import DistributionTable


def first_return_series(p: float, n: int) -> np.ndarray:
    """First-return coefficients via the binomial series of sqrt(1 - 4p(1-p)s^2).

    ``1 - sqrt(1 - u)`` expands with generic half-integer binomial
    coefficients, computed here by their own recurrence; this is the
    independent cross-check for ``first_return_coefficients``.
    """
    _check_walk_parameter(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    u = -4.0 * p * (1.0 - p)
    out = np.zeros(n + 1)
    binom = 1.0  # C(1/2, k), starting at k = 0
    power = 1.0  # u^k
    k = 1
    while 2 * k <= n:
        binom *= (0.5 - (k - 1)) / k
        power *= u
        out[2 * k] = -binom * power
        k += 1
    return out


def renewal_gaps(times: Sequence[int]) -> list[int]:
    """Renewal gaps of renewal times: the first time, then consecutive differences."""
    return [times[0]] + [b - a for a, b in zip(times, times[1:])] if times else []


def extract_renewals(path: Sequence[int], targets: Iterable[int]) -> tuple[list[int], list[int]]:
    """Renewal gaps and cumulative renewal times of one path.

    The first gap is the first hitting time of the target set (zero when
    the path starts inside it); later gaps separate consecutive visits.
    Returns ``([], [])`` when the path never visits the target set.
    """
    target = frozenset(targets)
    times = [t for t, x in enumerate(path) if int(x) in target]
    return renewal_gaps(times), times


def simultaneous_renewal_time(tau1: Sequence[int], tau2: Sequence[int]) -> int | None:
    """First strictly positive time present in both renewal sequences."""
    common = {t for t in tau1 if t > 0} & {t for t in tau2 if t > 0}
    return min(common) if common else None


def mass_defect(table: DistributionTable) -> float:
    """|1 - (total mass + residual)| of a distribution table."""
    return abs(1.0 - (float(table.mass.sum()) + table.residual))
