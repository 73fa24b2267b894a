"""Deterministic random streams for reproducible sampling.

One stream contract serves every sampler: counter-based uniforms
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011)
finalized by splitmix64 (Steele, Lea & Flood, OOPSLA 2014), recorded in
every report as ``meta.rng`` = :data:`CONTRACT`.  Stream i of
``(seed, *prefix)`` has the key ``mix(seed, *prefix, i)`` from
:func:`stream_keys`, a chained splitmix64 hash (:func:`mix`), and draw k of
the stream with key ``key`` is the top 53 bits of
``splitmix64(key + k * PHI)`` (:func:`uniforms`).  Every uniform is thus a
pure function of ``(seed, prefix, i, k)``, so a given address always yields
the same draws no matter how the work is chunked or scheduled across
workers.  The condition checkers and ``sample_path`` compute a draw for a
whole batch of streams at once in numpy ``uint64`` arithmetic; the joint
renewal estimator reads path i's stream one draw at a time through
:func:`derive_stream`.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

CONTRACT = "counter-splitmix64"
_MASK64 = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15
# draws per refill of a derived stream: the first block, then four times the
# last, up to the cap, so a long stream makes few numpy calls and holds at
# most one block of MAX_BLOCK floats
FIRST_BLOCK = 256
MAX_BLOCK = 4096
# 0-d uint64 operands: a ufunc takes them faster than a new np.uint64 scalar,
# which matters on the short arrays of a refill
_PHI, _MUL1, _MUL2, _SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (
    np.array(v, dtype=np.uint64) for v in (PHI, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31)
)


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (public-domain constants)."""
    x = (x + PHI) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix(master_seed: int, *indices: int) -> int:
    """64-bit mix of a master seed and any number of stream indices.

    ``mix(seed)`` hashes the seed alone; each extra index is hashed and
    folded in, so ``mix(s, i, c)`` differs from ``mix(s, i)`` and from
    ``mix(s, j, c)`` for i != j.
    """
    state = splitmix64(master_seed & _MASK64)
    for index in indices:
        state = splitmix64(state ^ splitmix64((index + 1) & _MASK64))
    return state


def derive_stream(key: int, head: Sequence[float]):
    """Draw function of the counter stream with key ``key``, one of :func:`stream_keys`.

    Call n (from 0) returns ``uniforms(key, n)`` bit for bit.  ``head`` is
    any sequence of the stream's first ``len(head)`` draws, such as a list
    or a ``memoryview`` slice of a float64 buffer that the caller computed
    for many keys at once; later draws come from :func:`uniforms` in blocks
    of ``FIRST_BLOCK`` draws growing fourfold up to ``MAX_BLOCK``.
    """
    return chain.from_iterable(_blocks(key, head)).__next__


def _blocks(key: int, head: Sequence[float]):
    yield head
    k, size = len(head), FIRST_BLOCK
    while True:
        # floats are made as they are read, so an unread tail costs no objects
        yield memoryview(uniforms(key, np.arange(k, k + size)))
        k += size
        size = min(4 * size, MAX_BLOCK)


def _splitmix64_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` elementwise, overwriting the ``uint64`` array x.

    Array arithmetic wraps modulo 2**64 silently, as the scalar masks do.
    """
    x += _PHI
    x ^= x >> _SHIFT30
    x *= _MUL1
    x ^= x >> _SHIFT27
    x *= _MUL2
    x ^= x >> _SHIFT31
    return x


def stream_keys(master_seed: int, *prefix: int, start: int = 0, count: int) -> np.ndarray:
    """Stream keys ``mix(master_seed, *prefix, i)`` for start <= i < count."""
    keys = _splitmix64_inplace(np.arange(start + 1, count + 1, dtype=np.uint64))
    keys ^= np.uint64(mix(master_seed, *prefix))
    return _splitmix64_inplace(keys)


def uniforms(keys: np.ndarray, k) -> np.ndarray:
    """Draw k (an int, or an array broadcast against ``keys``) of counter streams.

    The value is the top 53 bits of ``splitmix64(key + k * PHI)`` scaled to
    [0, 1), so it equals the scalar :func:`splitmix64` result bit for bit.
    """
    step = np.asarray(k, dtype=np.uint64) * _PHI
    bits = _splitmix64_inplace(np.asarray(keys, dtype=np.uint64) + step)
    bits >>= _SHIFT11
    return bits * 2.0**-53
