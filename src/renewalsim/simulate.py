"""Path sampling, renewal extraction, and the joint renewal estimator.

The estimator samples independent pairs of chains and records, per path,
the renewal times of each chain, the first simultaneous visit to the
target set, and the alternating landing-trial sequence built from the two
renewal time sequences.  Path i draws every uniform (both chains,
alternately) from the stream ``derive_stream(master_seed, i)``, so
estimates do not depend on worker count or execution order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .kernel import KernelSchedule
from .rng import derive_stream, stream_keys, uniforms

INITIAL_SUM_TOL = 1e-12


def _check_initial(initial, size: int) -> np.ndarray:
    init = np.asarray(initial, dtype=float)
    if init.shape != (size,):
        raise ValueError(f"initial vector must have length {size}")
    if (init < 0).any():
        raise ValueError("initial vector has a negative entry")
    if abs(float(init.sum()) - 1.0) > INITIAL_SUM_TOL:
        raise ValueError(f"initial vector sums to {float(init.sum()):.12g}, not 1")
    return init


class _Sampler:
    """Cumulative-row tables for one schedule, built once and read many times.

    ``rows_at`` serves the scalar :func:`_draw`; :meth:`draw` steps a whole
    batch of chains at once.
    """

    __slots__ = ("body", "tail", "body_len", "period", "size", "tables")

    def __init__(self, schedule: KernelSchedule):
        def cum_rows(m: np.ndarray) -> list[list[float]]:
            return [list(np.cumsum(row)) for row in m]

        self.body = [cum_rows(m) for m in schedule.body]
        self.tail = [cum_rows(m) for m in schedule.tail.values]
        self.body_len = len(self.body)
        self.period = len(self.tail)
        self.size = schedule.space.size
        self.tables = [_InverseCdf(np.cumsum(m, axis=1)) for m in (*schedule.body, *schedule.tail.values)]

    def rows_at(self, t: int) -> list[list[float]]:
        if t < self.body_len:
            return self.body[t]
        return self.tail[t % self.period]

    def draw(self, t: int, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next states of chains at ``states`` for the step from t, given uniforms u."""
        phase = t if t < self.body_len else self.body_len + t % self.period
        return self.tables[phase](states, u)


def _draw(cum: list[float], u: float, size: int) -> int:
    s = bisect_right(cum, u)
    return s if s < size else size - 1


class _InverseCdf:
    """:func:`_draw` for a batch of (row, uniform) pairs of one cumulative table.

    With ``bounds`` all cumulative values sorted, entry j of row x gets the
    key ``x * width + (number of bounds below it)``; for a valid kernel the
    rows are nondecreasing, so the keys are sorted.  An entry is at most u
    exactly when its count of smaller bounds is below the number of bounds
    at most u.  The number of row-x entries at most u is then the number of
    keys below ``x * width + (number of bounds at most u)``, less the
    x * size keys of earlier rows: two ``searchsorted`` calls, with no
    batch-by-size array and the same float comparisons as ``bisect_right``.
    """

    __slots__ = ("bounds", "keys", "width", "size")

    def __init__(self, cum: np.ndarray):
        self.bounds = np.sort(cum, axis=None)
        self.width = len(self.bounds)
        self.size = cum.shape[1]
        self.keys = (np.arange(len(cum))[:, None] * self.width + np.searchsorted(self.bounds, cum)).ravel()

    def __call__(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        query = np.searchsorted(self.bounds, u, side="right")
        query += rows * self.width
        s = np.searchsorted(self.keys, query)
        s -= rows * self.size
        return np.minimum(s, self.size - 1, out=s)


def sample_path(schedule: KernelSchedule, initial, seed: int, horizon: int) -> np.ndarray:
    """Sample one trajectory X_0..X_horizon.

    X_0 follows ``initial`` and the step from t to t + 1 uses the row of
    ``schedule.at(t)`` for the current state.  Draw k comes from the
    counter stream ``stream_keys(seed, count=1)``, so the output is a pure
    function of ``(schedule, initial, seed, horizon)``.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    init = _check_initial(initial, schedule.space.size)
    draws = uniforms(stream_keys(seed, count=1), np.arange(horizon + 1)).tolist()
    sampler = _Sampler(schedule)
    n = sampler.size
    out = np.empty(horizon + 1, dtype=np.int64)
    x = _draw(list(np.cumsum(init)), draws[0], n)
    out[0] = x
    for t in range(horizon):
        x = _draw(sampler.rows_at(t)[x], draws[t + 1], n)
        out[t + 1] = x
    return out


def extract_renewals(path: Sequence[int], targets: Iterable[int]) -> tuple[list[int], list[int]]:
    """Renewal gaps and cumulative renewal times of one path.

    The first gap is the first hitting time of the target set (zero when
    the path starts inside it); later gaps separate consecutive visits.
    Returns ``([], [])`` when the path never visits the target set.
    """
    target = frozenset(targets)
    times = [t for t, x in enumerate(path) if int(x) in target]
    if not times:
        return [], []
    gaps = [times[0]] + [b - a for a, b in zip(times, times[1:])]
    return gaps, times


def simultaneous_renewal_time(tau1: Sequence[int], tau2: Sequence[int]) -> int | None:
    """First strictly positive time present in both renewal sequences."""
    common = {t for t in tau1 if t > 0} & {t for t in tau2 if t > 0}
    return min(common) if common else None


@dataclass(frozen=True)
class TrialSequence:
    """Alternating landing trials between two renewal time sequences.

    ``indices[k]`` is the renewal index the k-th trial landed on (in chain
    1's sequence for even k, chain 2's for odd k), ``gaps[k]`` the landing
    offset, and ``sums`` its partial sums.  ``first_success`` is the index
    of the first zero gap; ``None`` means the scan ran out of data.
    """

    indices: tuple[int, ...]
    gaps: tuple[int, ...]
    sums: tuple[int, ...]
    first_success: int | None

    @property
    def censored(self) -> bool:
        return self.first_success is None


def trial_sequence(
    tau1: Sequence[int], tau2: Sequence[int], n0: int = 0, scan: str = "printed"
) -> TrialSequence:
    """Build the alternating trial sequence from two renewal time sequences.

    Trial 0 anchors on the first renewal of chain 1 exceeding ``n0``
    (indices start at 1, so the very first visit never anchors).  Trial k
    then scans the other chain for a renewal that either lands exactly on
    the current anchor (gap zero, success) or overshoots it by more than
    ``n0``.  The gap-zero branch does not apply to trial 0.

    ``scan`` picks where each scan starts:

    * ``"printed"`` starts at the index landed by the previous trial even
      though that index belongs to the other chain's sequence.  When one
      chain renews much less often than the other, this skips landings
      that are valid in time, so the trial total can far exceed the first
      simultaneous renewal.
    * ``"time"`` starts at the scanned chain's own first entry not yet
      ruled out by time, i.e. each trial lands on the scanned chain's
      earliest qualifying renewal.  With ``n0 = 0`` the trial total then
      equals the first simultaneous renewal exactly.
    """
    if n0 < 0:
        raise ValueError("n0 must be nonnegative")
    if scan not in ("printed", "time"):
        raise ValueError("scan must be 'printed' or 'time'")
    seqs = (list(tau1), list(tau2))

    first = seqs[0]
    j = 1
    while j < len(first) and first[j] <= n0:
        j += 1
    if j >= len(first):
        return TrialSequence((), (), (), None)
    anchor = first[j]
    indices = [j]
    gaps = [anchor]
    sums = [anchor]
    prev_index = j
    pointer = [j, 0]  # per-chain scan floor for the time reading

    k = 1
    while True:
        chain = k % 2
        seq = seqs[chain]
        if scan == "printed":
            j = prev_index
        else:
            # entries strictly before the anchor can never qualify again
            j = pointer[chain]
            while j < len(seq) and seq[j] < anchor:
                j += 1
            pointer[chain] = j
        found = -1
        while j < len(seq):
            d = seq[j] - anchor
            if d == 0 or d > n0:
                found = j
                break
            j += 1
        if found < 0:
            return TrialSequence(tuple(indices), tuple(gaps), tuple(sums), None)
        b = seq[found] - anchor
        indices.append(found)
        gaps.append(b)
        sums.append(sums[-1] + b)
        anchor = seq[found]
        prev_index = found
        if b == 0:
            return TrialSequence(tuple(indices), tuple(gaps), tuple(sums), k)
        k += 1


@dataclass(frozen=True)
class RenewalTrace:
    """Per-path renewal record for one chain pair."""

    gaps1: tuple[int, ...]
    gaps2: tuple[int, ...]
    renewals1: tuple[int, ...]
    renewals2: tuple[int, ...]
    meeting_time: int | None
    trials: TrialSequence
    horizon: int

    @property
    def censored(self) -> bool:
        return self.meeting_time is None

    def first_hit(self, chain: int) -> int | None:
        times = self.renewals1 if chain == 1 else self.renewals2
        return times[0] if times else None


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """Everything needed to reproduce one joint sampling experiment."""

    schedule1: KernelSchedule
    schedule2: KernelSchedule
    initial1: np.ndarray
    initial2: np.ndarray
    horizon: int
    n_paths: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "initial1", _check_initial(self.initial1, self.schedule1.space.size))
        object.__setattr__(self, "initial2", _check_initial(self.initial2, self.schedule2.space.size))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.schedule1.space.target_set != self.schedule2.space.target_set:
            raise ValueError("both schedules must share the same target set")

    @property
    def targets(self) -> frozenset[int]:
        return self.schedule1.space.target_set


def _simulate_pair(sampler1, sampler2, cum_init1, cum_init2, targets, horizon, rng, n0, scan):
    """Step both chains until the meeting time and trial scan are resolved.

    Both chains draw alternately from the single per-path stream.
    """
    n1, n2 = sampler1.size, sampler2.size
    uniform = rng.random
    rows1 = sampler1.rows_at
    rows2 = sampler2.rows_at
    x1 = _draw(cum_init1, uniform(), n1)
    x2 = _draw(cum_init2, uniform(), n2)
    r1 = [0] if x1 in targets else []
    r2 = [0] if x2 in targets else []
    meeting: int | None = None
    trials: TrialSequence | None = None
    t = 0
    while t < horizon:
        s = bisect_right(rows1(t)[x1], uniform())
        x1 = s if s < n1 else n1 - 1
        s = bisect_right(rows2(t)[x2], uniform())
        x2 = s if s < n2 else n2 - 1
        t += 1
        in1 = x1 in targets
        in2 = x2 in targets
        if in1:
            r1.append(t)
        if in2:
            r2.append(t)
        if meeting is None:
            if in1 and in2:
                meeting = t
                trials = trial_sequence(r1, r2, n0, scan)
                if trials.first_success is not None:
                    break
        elif in1 or in2:
            # The printed scan can need renewals past the meeting time
            # (always when the meeting is chain 1's first-ever visit,
            # and with n0 > 0 in general); keep stepping until it
            # resolves.
            trials = trial_sequence(r1, r2, n0, scan)
            if trials.first_success is not None:
                break
    if trials is None:
        trials = trial_sequence(r1, r2, n0, scan)
    return r1, r2, meeting, trials


def _simulate_range(plan: SimulationPlan, start: int, stop: int, n0: int, scan: str, keep_traces: bool):
    """Simulate paths [start, stop); used as the per-worker unit of work."""
    sampler1 = _Sampler(plan.schedule1)
    sampler2 = _Sampler(plan.schedule2)
    cum1 = list(np.cumsum(plan.initial1))
    cum2 = list(np.cumsum(plan.initial2))
    targets = plan.targets
    horizon = plan.horizon

    count = stop - start
    meeting = np.full(count, -1, dtype=np.int64)
    hit1 = np.full(count, -1, dtype=np.int64)
    hit2 = np.full(count, -1, dtype=np.int64)
    n_trials = np.full(count, -1, dtype=np.int64)
    traces: list[RenewalTrace] = []

    for offset in range(count):
        path_index = start + offset
        rng = derive_stream(plan.master_seed, path_index)
        r1, r2, t_meet, trials = _simulate_pair(
            sampler1, sampler2, cum1, cum2, targets, horizon, rng, n0, scan
        )
        if t_meet is not None:
            meeting[offset] = t_meet
        if r1:
            hit1[offset] = r1[0]
        if r2:
            hit2[offset] = r2[0]
        if trials.first_success is not None:
            n_trials[offset] = trials.first_success
        if keep_traces:
            gaps1 = tuple([r1[0]] + [b - a for a, b in zip(r1, r1[1:])]) if r1 else ()
            gaps2 = tuple([r2[0]] + [b - a for a, b in zip(r2, r2[1:])]) if r2 else ()
            traces.append(
                RenewalTrace(
                    gaps1=gaps1,
                    gaps2=gaps2,
                    renewals1=tuple(r1),
                    renewals2=tuple(r2),
                    meeting_time=t_meet,
                    trials=trials,
                    horizon=horizon,
                )
            )
    return start, meeting, hit1, hit2, n_trials, traces


@dataclass(frozen=True, eq=False)
class JointRenewalEstimate:
    """Monte Carlo summary of the simultaneous renewal time over a plan."""

    n_paths: int
    horizon: int
    master_seed: int
    status: str
    censored: int
    censoring_rate: float
    mean: float
    se: float
    mean_is_lower_bound: bool
    tail: np.ndarray
    tail_se: np.ndarray
    meeting_times: np.ndarray
    first_hit1: np.ndarray
    first_hit2: np.ndarray
    trials_to_success: np.ndarray
    traces: tuple[RenewalTrace, ...] | None


def estimate_joint_renewal(
    plan: SimulationPlan,
    *,
    workers: int = 1,
    keep_traces: bool = False,
    tail_len: int = 256,
    n0: int = 0,
    trial_scan: str = "printed",
) -> JointRenewalEstimate:
    """Estimate the simultaneous renewal time distribution over a plan.

    Censored paths (no joint visit within the horizon) are never dropped:
    they are counted separately, enter the tail curve exactly for lags up
    to the horizon, and make the reported mean a lower bound (censored
    paths contribute the horizon).  Results are bit-identical for any
    ``workers`` value because every path draws from its own derived
    stream and aggregation runs in path order.
    """
    tail_len = min(tail_len, plan.horizon)
    ranges = _split_ranges(plan.n_paths, workers)
    if workers <= 1 or len(ranges) == 1:
        parts = [_simulate_range(plan, a, b, n0, trial_scan, keep_traces) for a, b in ranges]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_simulate_range, plan, a, b, n0, trial_scan, keep_traces)
                for a, b in ranges
            ]
            parts = [f.result() for f in futures]
    parts.sort(key=lambda part: part[0])

    meeting = np.concatenate([p[1] for p in parts])
    hit1 = np.concatenate([p[2] for p in parts])
    hit2 = np.concatenate([p[3] for p in parts])
    n_trials = np.concatenate([p[4] for p in parts])
    traces: tuple[RenewalTrace, ...] | None = None
    if keep_traces:
        traces = tuple(trace for p in parts for trace in p[5])

    censored_mask = meeting < 0
    censored = int(censored_mask.sum())
    values = np.where(censored_mask, plan.horizon, meeting).astype(float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(plan.n_paths)) if plan.n_paths > 1 else 0.0

    effective = np.where(censored_mask, plan.horizon + 1, meeting)
    lags = np.arange(tail_len + 1)
    tail = (effective[None, :] > lags[:, None]).mean(axis=1)
    tail_se = np.sqrt(tail * (1.0 - tail) / plan.n_paths)

    return JointRenewalEstimate(
        n_paths=plan.n_paths,
        horizon=plan.horizon,
        master_seed=plan.master_seed,
        status="all-censored" if censored == plan.n_paths else "ok",
        censored=censored,
        censoring_rate=censored / plan.n_paths,
        mean=mean,
        se=se,
        mean_is_lower_bound=censored > 0,
        tail=tail,
        tail_se=tail_se,
        meeting_times=meeting,
        first_hit1=hit1,
        first_hit2=hit2,
        trials_to_success=n_trials,
        traces=traces,
    )


def _split_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    chunks = max(1, workers)
    size = math.ceil(n / chunks)
    return [(a, min(a + size, n)) for a in range(0, n, size)]
