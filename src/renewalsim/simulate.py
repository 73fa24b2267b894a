"""Path sampling and the joint renewal estimator.

The estimator samples independent pairs of chains and records, per path,
the first simultaneous visit to the target set, each chain's first visit,
and the alternating landing-trial sequence built from the two renewal
time sequences.  Path i draws every uniform (both chains,
alternately) from the counter stream with key ``mix(master_seed, i)``, the
contract of :func:`rng.uniforms` that ``sample_path`` and the condition
checkers use too: draw 0 is chain 1's initial state, draw 1 chain 2's,
draw 2 + 2t chain 1's step from t and draw 3 + 2t chain 2's.  Estimates
therefore do not depend on worker count, execution order or the chunking
of keys and stream heads (``KEY_CHUNK``, ``HEAD_DRAWS``).
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
from .kernel import KernelSchedule, _check_initial, _target_mask, check_fits
from .rng import derive_stream, stream_keys, uniforms


class _Sampler:
    """Every Monte Carlo loop's reader of a schedule: one :class:`_InverseCdf` over the
    rows of ``schedule.phases`` end to end, where the step from t at state x reads row
    ``phase(t) * size + x``; padding rows to the widest phase (``+inf``) changes no draw."""

    __slots__ = ("phase", "size", "table")

    def __init__(self, schedule: KernelSchedule):
        self.phase = schedule.phase
        self.size = schedule.space.size
        self.table = _InverseCdf(schedule.phases.reshape(-1, self.size))

    def draw(self, t: int, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next states of chains at ``states`` for the step from t, given uniforms u."""
        return self.table(self.phase(t) * self.size + states, u)

    def paths(self, init: np.ndarray, keys: np.ndarray, steps: int):
        """X_0..X_steps per counter stream: draw 0 against ``init``, then draw t + 1 for the step from t."""
        x = _InverseCdf(init[None, :])(np.zeros(len(keys), dtype=np.int64), uniforms(keys, 0))
        yield x
        for t in range(steps):
            x = self.draw(t, x, uniforms(keys, t + 1))
            yield x


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
    by ``bisect`` over :meth:`lists`.  Both need finite, nonnegative rows,
    as a schedule's kernels (checked when it is built) and an initial law
    from ``_check_initial`` have; those fall short of 1 by rounding at most.
    """

    __slots__ = ("width", "values", "states", "probes")

    def __init__(self, kernel: np.ndarray):
        n, size = kernel.shape
        # row x's k-th kept entry goes to slot x * width + k: past the mask no
        # temporary is n * size long; a zero adds nothing to a cumulative sum
        flat = np.flatnonzero(kernel > 0)
        rows, cols = np.divmod(flat, size)
        counts = np.bincount(rows, minlength=n)
        self.width = 1 << int(counts.max()).bit_length()
        at = rows * self.width + np.arange(len(flat)) - (np.cumsum(counts) - counts)[rows]
        values = np.zeros((n, self.width))
        values.reshape(-1)[at] = kernel.take(flat)
        np.cumsum(values, axis=1, out=values)
        values[np.arange(self.width) >= counts[:, None]] = np.inf
        self.values = values.reshape(-1)
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


def sample_path(schedule: KernelSchedule, initial, seed: int, horizon: int) -> np.ndarray:
    """Sample one trajectory X_0..X_horizon, X_0 from ``initial`` and the step
    from t by ``schedule.at(t)``, on the counter stream ``stream_keys(seed, count=1)``:
    a pure function of ``(schedule, initial, seed, horizon)``."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    init = _check_initial(initial, schedule.space.size)
    paths = _Sampler(schedule).paths(init, stream_keys(seed, count=1), horizon)
    return np.fromiter((x[0] for x in paths), dtype=np.int64, count=horizon + 1)


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
    printed = scan == "printed"
    if resume is not None and resume.indices:
        indices, sums = list(resume.indices), list(resume.sums)
    else:
        j = 1
        while j < len(tau1) and tau1[j] <= n0:
            j += 1
        if j >= len(tau1):
            return tuple.__new__(TrialSequence, ((), (), None))
        indices, sums = [j], [tau1[j]]

    k, success = len(indices), None
    while True:
        seq = tau2 if k % 2 else tau1
        anchor = sums[-1]
        j = indices[-1] if printed else bisect_left(seq, anchor)
        while j < len(seq) and seq[j] != anchor and seq[j] - anchor <= n0:
            j += 1
        if j >= len(seq):
            break
        indices.append(j)
        sums.append(seq[j])
        if seq[j] == anchor:
            success = k
            break
        k += 1
    # tuple.__new__ skips the keyword parsing of the NamedTuple constructor
    return tuple.__new__(TrialSequence, (tuple(indices), tuple(sums), success))


# meeting time, both first hits, trial count and trial-run length: one int32
# each per path; the trial sums add 4 bytes per sum on top
RESULT_BYTES_PER_PATH = 5 * 4
# every per-path value lies in [-1, horizon + 1], which must fit an int32: a
# sum is a renewal time, and each trial before the success lands strictly
# later than the one before it, so a path has at most horizon + 1 trials
MAX_HORIZON = np.iinfo(np.int32).max - 1


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
        if self.horizon > MAX_HORIZON:
            raise OverflowError(
                f"horizon {self.horizon} is too large: path times are int32, so it must be at most {MAX_HORIZON}"
            )
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.schedule1.space.target_set != self.schedule2.space.target_set:
            raise ValueError("both schedules must share the same target set")
        check_fits(RESULT_BYTES_PER_PATH * self.n_paths, f"the per-path results of {self.n_paths} paths")

    @property
    def targets(self) -> frozenset[int]:
        return self.schedule1.space.target_set


KEY_CHUNK = 128
# a path's first draws come with its chunk's keys, in one float64 buffer that
# each path reads through a memoryview slice; a path that stops within 15
# steps never refills (98.4 % of paths on the birth-death demo pair)
HEAD_DRAWS = 32


def _simulate_range(plan: SimulationPlan, start: int, stop: int, n0: int, scan: str):
    """Simulate paths [start, stop); used as the per-worker unit of work.

    Returns the per-path arrays of :class:`JointRenewalEstimate` for the
    range, in its field order: meeting times, both first hits, trials to
    success, the trial sums end to end and their count per path.

    Keys come ``KEY_CHUNK`` paths at a time with the first ``HEAD_DRAWS``
    uniforms of each path's stream, in one numpy call per chunk.  Path i
    draws from ``derive_stream(key, head)``, with ``head`` its slice of the
    chunk's buffer: the two initial states, then chain 1 and chain 2 at
    every step.  The step from t at state x reads row x of body phase t, then of
    cycle phase ``t % period`` (:meth:`KernelSchedule.phase`), in its sampler's
    table as flat lists, past the offset of that phase's first row.  Each
    chain's state is carried as that row's offset ``x * width``: the
    next-state lists hold offsets, and the target masks are indexed by them.

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
    schedule1, schedule2 = plan.schedule1, plan.schedule2
    (values1, states1, width1), (values2, states2, width2) = (
        _Sampler(schedule).table.lists() for schedule in (schedule1, schedule2))
    # each phase's first row as an offset into its chain's flat lists
    first1 = list(range(0, len(values1), schedule1.space.size * width1))
    first2 = list(range(0, len(values2), schedule2.space.size * width2))
    n1, n2 = len(schedule1.body), len(schedule2.body)
    body1, cycle1, body2, cycle2 = first1[:n1], first1[n1:], first2[:n2], first2[n2:]
    period1, period2 = len(cycle1), len(cycle2)
    (init_values1, init_states1, _), (init_values2, init_states2, _) = (
        _InverseCdf(init[None, :]).lists() for init in (plan.initial1, plan.initial2))
    # states as row offsets: state x is x * width in every list below
    states1, init_states1 = [x * width1 for x in states1], [x * width1 for x in init_states1]
    states2, init_states2 = [x * width2 for x in states2], [x * width2 for x in init_states2]
    in1 = np.repeat(_target_mask(schedule1.space), width1).tolist()
    in2 = np.repeat(_target_mask(schedule2.space), width2).tolist()
    seed, horizon, head_size = plan.master_seed, plan.horizon, HEAD_DRAWS

    count = stop - start
    # int32 like the trial sums, handed to numpy without a copy
    meeting, hit1, hit2, n_trials = (array("i", [-1]) * count for _ in range(4))
    sums, lengths = array("i"), array("i", [0]) * count

    for chunk in range(start, stop, KEY_CHUNK):
        keys = stream_keys(seed, start=chunk, count=min(chunk + KEY_CHUNK, stop))
        heads = memoryview(uniforms(keys[:, None], np.arange(head_size)).reshape(-1))
        at = 0
        for offset, key in enumerate(keys.tolist(), chunk - start):
            uniform = derive_stream(key, heads[at:at + head_size])
            at += head_size
            x1 = init_states1[bisect_right(init_values1, uniform())]
            x2 = init_states2[bisect_right(init_values2, uniform())]
            r1 = [0] if in1[x1] else []
            r2 = [0] if in2[x2] else []
            t_meet: int | None = None
            trials: TrialSequence | None = None
            t = 0
            while t < horizon:
                row = (body1[t] if t < n1 else cycle1[t % period1]) + x1
                x1 = states1[bisect_right(values1, uniform(), row, row + width1)]
                row = (body2[t] if t < n2 else cycle2[t % period2]) + x2
                x2 = states2[bisect_right(values2, uniform(), row, row + width2)]
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
            if trials is None or trials.first_success is None:
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
    return tuple(np.frombuffer(a, dtype=np.int32) for a in (meeting, hit1, hit2, n_trials, sums, lengths))


@dataclass(frozen=True, eq=False)
class JointRenewalEstimate:
    """Monte Carlo summary of the simultaneous renewal time over a plan.

    ``trial_sums`` holds every path's landing-trial partial sums end to
    end, in path order; path i contributes ``trial_lengths[i]`` of them.
    The per-path arrays are int32: with one range of paths, numpy views of
    the ``array("i")`` buffers the estimator wrote path by path.
    """

    n_paths: int
    horizon: int
    censored: int
    mean: float
    se: float
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
            # one list of parts per result, in range order, so path order is kept
            columns = [list(column) for column in zip(*(f.result() for f in futures))]
        del futures  # a future holds its result
        arrays = []
        for column in columns:
            arrays.append(np.concatenate(column))
            column.clear()  # drop this result's parts before merging the next
    meeting, hit1, hit2, n_trials, sums, lengths = arrays

    censored_mask = meeting < 0
    censored = int(censored_mask.sum())
    values = meeting.astype(float)
    values[censored_mask] = plan.horizon
    mean = float(values.sum() / plan.n_paths)
    se = 0.0
    if plan.n_paths > 1:
        # the steps of values.std(ddof=1), in its order, on values itself:
        # the same se bit for bit without a second full-size temporary
        values -= mean
        values *= values
        se = math.sqrt(values.sum() / (plan.n_paths - 1)) / math.sqrt(plan.n_paths)
    del values

    # P{T > n} for n = 0..tail_len: the paths meeting at each lag, with
    # censored paths and meetings past tail_len in the last bin; intp is
    # bincount's index type, so it reads the lags without a copy, and the
    # clip runs in place, where a casting np.minimum takes a 64 KiB buffer
    lags = meeting.astype(np.intp)
    np.minimum(lags, tail_len + 1, out=lags)
    lags[censored_mask] = tail_len + 1
    counts = np.bincount(lags, minlength=tail_len + 2)
    tail = suffix_tails(counts[:-1], counts[-1]) / plan.n_paths
    tail_se = np.sqrt(tail * (1.0 - tail) / plan.n_paths)

    return JointRenewalEstimate(
        n_paths=plan.n_paths,
        horizon=plan.horizon,
        censored=censored,
        mean=mean,
        se=se,
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
