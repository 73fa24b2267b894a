"""Path sampling and the joint renewal estimator.

The estimator samples independent pairs of chains and records, per path,
the first simultaneous visit to the target set, each chain's first visit,
and the alternating landing-trial sequence built from the two renewal
time sequences.  Path i draws every uniform (both chains,
alternately) from the counter stream with key ``mix(master_seed, i)``, the
contract of :func:`rng.uniforms` that ``sample_path`` and the condition
checkers use too: draw 0 is chain 1's initial state, draw 1 chain 2's,
draw 2 + 2t chain 1's step from t and draw 3 + 2t chain 2's.  Estimates
therefore do not depend on worker count or execution order.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .exact import suffix_tails
from .kernel import KernelSchedule, _check_entries, _check_initial, check_fits
from .rng import derive_stream, stream_keys, uniforms


class _Sampler:
    """One :class:`_InverseCdf` per schedule phase, picked by the schedule's ``phase(t)``;
    a kernel with a non-finite or negative entry raises ValueError naming its phase label and row."""

    __slots__ = ("phase", "tables")

    def __init__(self, schedule: KernelSchedule):
        self.phase = schedule.phase
        self.tables = [_InverseCdf(m, label) for label, m in schedule.labeled()]

    def draw(self, t: int, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next states of chains at ``states`` for the step from t, given uniforms u."""
        return self.tables[self.phase(t)](states, u)


class _InverseCdf:
    """Every row of one kernel maps a uniform u to the first state whose
    cumulative row sum exceeds u, or to the last state when u is at or
    above a short row's total.

    For u >= 0 the first cumulative value above u sits in a column with a
    positive entry (a zero entry repeats the value before it), so each row
    keeps only those columns' cumulative values in ``values``, padded with
    ``+inf`` to ``width``, the smallest power of two above the longest row.
    The number of kept values at most u then indexes ``states``: the column
    of the next kept value, or ``size - 1`` past the last one.  A batch of
    draws counts them by branchless bisection (the call), log2(width)
    rounds of one ``take`` and one comparison each; one draw counts them
    by ``bisect`` over :meth:`lists`.  Both need finite, nondecreasing rows,
    so a non-finite or negative entry raises ValueError naming ``name`` and the row.
    """

    __slots__ = ("width", "values", "states", "probes")

    def __init__(self, kernel: np.ndarray, name: str):
        _check_entries(kernel, name)
        n, size = kernel.shape
        kept = kernel > 0
        self.width = 1 << int(kept.sum(axis=1).max()).bit_length()
        rows, cols = np.nonzero(kept)
        at = rows * self.width + np.cumsum(kept, axis=1)[kept] - 1
        self.values = np.full(n * self.width, np.inf)
        self.values[at] = np.cumsum(kernel, axis=1)[kept]
        self.states = np.full(n * self.width, size - 1, dtype=np.int64)
        self.states[at] = cols
        # round with step s compares u against values[at + s - 1]
        steps = [self.width >> r for r in range(1, self.width.bit_length())]
        self.probes = [(s, self.values[s - 1:]) for s in steps]

    def __call__(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        at = rows * self.width
        for step, values in self.probes:
            at += step * (u >= values.take(at))
        return self.states.take(at)

    def lists(self) -> tuple[list[float], list[int], int]:
        """As lists; row x at u goes to ``states[bisect_right(values, u, x * width, (x + 1) * width)]``."""
        return self.values.tolist(), self.states.tolist(), self.width


def _counter_paths(schedule: KernelSchedule, init: np.ndarray, keys: np.ndarray, steps: int):
    """X_0..X_steps per counter stream: draw 0 against ``init``, then draw t + 1 for the step from t."""
    sampler = _Sampler(schedule)
    x = _InverseCdf(init[None, :], "initial law")(np.zeros(len(keys), dtype=np.int64), uniforms(keys, 0))
    yield x
    for t in range(steps):
        x = sampler.draw(t, x, uniforms(keys, t + 1))
        yield x


def sample_path(schedule: KernelSchedule, initial, seed: int, horizon: int) -> np.ndarray:
    """Sample one trajectory X_0..X_horizon, X_0 from ``initial`` and the step
    from t by ``schedule.at(t)``, on the counter stream ``stream_keys(seed, count=1)``:
    a pure function of ``(schedule, initial, seed, horizon)``."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    init = _check_initial(initial, schedule.space.size)
    out = np.empty(horizon + 1, dtype=np.int64)
    for t, x in enumerate(_counter_paths(schedule, init, stream_keys(seed, count=1), horizon)):
        out[t] = x[0]
    return out


class TrialSequence(NamedTuple):
    """Alternating landing trials between two renewal time sequences.

    ``indices[k]`` is the renewal index the k-th trial landed on (in chain
    1's sequence for even k, chain 2's for odd k) and ``sums[k]`` the
    renewal time there, the partial sum of the landing offsets ``gaps``.
    ``first_success`` is the index of the first zero gap; ``None`` means
    the scan ran out of data.
    """

    indices: tuple[int, ...]
    sums: tuple[int, ...]
    first_success: int | None

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip((0, *self.sums), self.sums))

    @property
    def censored(self) -> bool:
        return self.first_success is None


def trial_sequence(
    tau1: Sequence[int], tau2: Sequence[int], n0: int = 0, scan: str = "printed",
    *, resume: TrialSequence | None = None,
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
    * ``"time"`` starts at ``bisect_left(seq, anchor)``, the scanned
      chain's first renewal not before the anchor, i.e. each trial lands
      on the scanned chain's earliest qualifying renewal.  With ``n0 = 0``
      the trial total then equals the first simultaneous renewal exactly.

    ``resume`` is the unresolved result of the same call on prefixes of
    ``tau1`` and ``tau2``.  Its trials are this scan's first trials, so the
    scan continues from its last landing instead of from trial 0, with the
    same result as a full scan.
    """
    if n0 < 0:
        raise ValueError("n0 must be nonnegative")
    if scan not in ("printed", "time"):
        raise ValueError("scan must be 'printed' or 'time'")
    seqs = (tau1, tau2)
    if resume is not None and resume.indices:
        indices, sums = list(resume.indices), list(resume.sums)
    else:
        j = 1
        while j < len(tau1) and tau1[j] <= n0:
            j += 1
        if j >= len(tau1):
            return TrialSequence((), (), None)
        indices, sums = [j], [tau1[j]]

    k = len(indices)
    while True:
        seq = seqs[k % 2]
        anchor = sums[-1]
        j = indices[-1] if scan == "printed" else bisect_left(seq, anchor)
        while j < len(seq) and seq[j] != anchor and seq[j] - anchor <= n0:
            j += 1
        if j >= len(seq):
            return TrialSequence(tuple(indices), tuple(sums), None)
        indices.append(j)
        sums.append(seq[j])
        if seq[j] == anchor:
            return TrialSequence(tuple(indices), tuple(sums), k)
        k += 1


# meeting time, both first hits, trial count and trial-run length: one int64
# each per path; the trial sums add 8 bytes per sum on top
RESULT_BYTES_PER_PATH = 5 * 8


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
        if self.horizon > np.iinfo(np.int64).max:
            raise OverflowError(f"horizon {self.horizon} is too large: path times are int64")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.schedule1.space.target_set != self.schedule2.space.target_set:
            raise ValueError("both schedules must share the same target set")
        check_fits(RESULT_BYTES_PER_PATH * self.n_paths, f"the per-path results of {self.n_paths} paths")

    @property
    def targets(self) -> frozenset[int]:
        return self.schedule1.space.target_set


KEY_CHUNK = 128
# a path's first draws come with its chunk's keys; a path that stops within
# 7 steps never refills (95 % of paths on the birth-death demo pair)
HEAD_DRAWS = 16


def _path_keys(seed: int, start: int, stop: int):
    """``(key, head)`` for start <= i < stop: the stream key ``mix(seed, i)`` and
    the stream's first ``HEAD_DRAWS`` uniforms, ``KEY_CHUNK`` paths per numpy call."""
    draws = np.arange(HEAD_DRAWS)
    for chunk in range(start, stop, KEY_CHUNK):
        keys = stream_keys(seed, start=chunk, count=min(chunk + KEY_CHUNK, stop))
        yield from zip(keys.tolist(), uniforms(keys[:, None], draws).tolist())


def _step_lists(schedule: KernelSchedule) -> tuple[list, list, list[bool]]:
    """One chain's step tables as :meth:`_InverseCdf.lists`, the body's then
    the cycle's, and whether each state is in the target set."""
    tables = [_InverseCdf(m, label).lists() for label, m in schedule.labeled()]
    n = len(schedule.body)
    targets = schedule.space.target_set
    return tables[:n], tables[n:], [x in targets for x in range(schedule.space.size)]


def _simulate_range(plan: SimulationPlan, start: int, stop: int, n0: int, scan: str):
    """Simulate paths [start, stop); used as the per-worker unit of work.

    Returns the per-path arrays of :class:`JointRenewalEstimate` for the
    range, in its field order: meeting times, both first hits, trials to
    success, the trial sums end to end and their count per path.

    Path i draws from ``derive_stream(key, head)`` with the key and head of
    :func:`_path_keys`: the two initial states, then chain 1 and chain 2 at
    every step.  The step from t reads each chain's body table t, then its
    cycle table ``t % period``, the rule of :meth:`KernelSchedule.phase`.

    The trial scan runs at every joint renewal t >= 1 (the first is the
    meeting time) until it succeeds, and once more on the full renewal
    lists if it never ran or is unresolved at the horizon.  No other step
    needs it: a scan that succeeds on data cut at t ends at a renewal
    S <= t of both chains and reads nothing past S, so it gives the same
    result on data cut at S or on all the data.  The first success thus
    falls at S, with the same draws and renewal lists as a scan at every
    step.  Each scan resumes the path's previous unresolved one, whose
    renewal lists are prefixes of the current ones.
    """
    body1, cycle1, in1 = _step_lists(plan.schedule1)
    body2, cycle2, in2 = _step_lists(plan.schedule2)
    n1, period1, n2, period2 = len(body1), len(cycle1), len(body2), len(cycle2)
    (values1, states1, _), (values2, states2, _) = (
        _InverseCdf(init[None, :], "initial law").lists() for init in (plan.initial1, plan.initial2)
    )
    seed, horizon = plan.master_seed, plan.horizon

    count = stop - start
    meeting = np.full(count, -1, dtype=np.int64)
    hit1 = np.full(count, -1, dtype=np.int64)
    hit2 = np.full(count, -1, dtype=np.int64)
    n_trials = np.full(count, -1, dtype=np.int64)
    sums = array("q")  # int64 like the other results, handed to numpy without a copy
    lengths = np.empty(count, dtype=np.int64)

    for offset, (key, head) in enumerate(_path_keys(seed, start, stop)):
        uniform = derive_stream(key, head)
        x1 = states1[bisect_right(values1, uniform())]
        x2 = states2[bisect_right(values2, uniform())]
        r1 = [0] if in1[x1] else []
        r2 = [0] if in2[x2] else []
        t_meet: int | None = None
        trials: TrialSequence | None = None
        t = 0
        while t < horizon:
            values, states, width = body1[t] if t < n1 else cycle1[t % period1]
            x1 = states[bisect_right(values, uniform(), x1 * width, (x1 + 1) * width)]
            values, states, width = body2[t] if t < n2 else cycle2[t % period2]
            x2 = states[bisect_right(values, uniform(), x2 * width, (x2 + 1) * width)]
            t += 1
            if in1[x1]:
                r1.append(t)
                if in2[x2]:
                    r2.append(t)
                    if trials is None:
                        t_meet = t
                    trials = trial_sequence(r1, r2, n0, scan, resume=trials)
                    if trials.first_success is not None:
                        break
            elif in2[x2]:
                r2.append(t)
        if trials is None or trials.censored:
            trials = trial_sequence(r1, r2, n0, scan, resume=trials)

        if t_meet is not None:
            meeting[offset] = t_meet
        if r1:
            hit1[offset] = r1[0]
        if r2:
            hit2[offset] = r2[0]
        if trials.first_success is not None:
            n_trials[offset] = trials.first_success
        sums.extend(trials.sums)
        lengths[offset] = len(trials.sums)
    return meeting, hit1, hit2, n_trials, np.frombuffer(sums, dtype=np.int64), lengths


@dataclass(frozen=True, eq=False)
class JointRenewalEstimate:
    """Monte Carlo summary of the simultaneous renewal time over a plan.

    ``trial_sums`` holds every path's landing-trial partial sums end to
    end, in path order; path i contributes ``trial_lengths[i]`` of them.
    """

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
    trial_sums: np.ndarray
    trial_lengths: np.ndarray
    # no per-path traces are kept; perfbench's tracer still reads this name
    traces = None


def estimate_joint_renewal(
    plan: SimulationPlan,
    *,
    workers: int = 1,
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
    stream and aggregation runs in path order.  The paths split into at
    most one range per CPU, whatever ``workers`` asks for, and the pool
    starts one process per range.
    """
    if tail_len < 0:
        raise ValueError("tail_len must be nonnegative")
    tail_len = min(tail_len, plan.horizon)
    # the meeting counts, the tail and its SE span tail_len + 2 lags
    check_fits(3 * 8 * (tail_len + 2), f"the meeting tail of length {tail_len}", available=True)
    # one range per process: a range costs a pickled plan and rebuilt step tables
    ranges = _split_ranges(plan.n_paths, min(workers, os.cpu_count() or 1))
    if len(ranges) == 1:
        # one range's arrays are the result as they are
        arrays = _simulate_range(plan, 0, plan.n_paths, n0, trial_scan)
    else:
        # imported here: the pool module pulls in multiprocessing, which a
        # one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_simulate_range, plan, a, b, n0, trial_scan) for a, b in ranges]
            parts = [f.result() for f in futures]
        # parts come back in range order, so path order is kept
        arrays = [np.concatenate(column) for column in zip(*parts)]
        del parts
    meeting, hit1, hit2, n_trials, sums, lengths = arrays

    censored_mask = meeting < 0
    censored = int(censored_mask.sum())
    values = meeting.astype(float)
    values[censored_mask] = plan.horizon
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(plan.n_paths)) if plan.n_paths > 1 else 0.0
    del values

    # P{T > n} for n = 0..tail_len: the paths meeting at each lag, with
    # censored paths and meetings past tail_len in the last bin
    lags = np.minimum(meeting, tail_len + 1)
    lags[censored_mask] = tail_len + 1
    counts = np.bincount(lags, minlength=tail_len + 2)
    tail = suffix_tails(counts[:-1], counts[-1]) / plan.n_paths
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
        trial_sums=sums,
        trial_lengths=lengths,
    )


def _split_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    chunks = max(1, workers)
    size = math.ceil(n / chunks)
    return [(a, min(a + size, n)) for a in range(0, n, size)]
