"""Deterministic random streams for reproducible sampling.

Two stream contracts are in use.  Both take their keys from
:func:`stream_keys`: stream i of ``(seed, *prefix)`` has the key
``mix(seed, *prefix, i)``, a chained splitmix64 hash (:func:`mix`), so a
given address always yields the same draws no matter how the work is
chunked or scheduled across workers:

* the joint renewal estimator draws path i from :func:`derive_stream`, a
  ``random.Random`` (Mersenne Twister) seeded with its key, so path i's
  stream is still ``random.Random(mix(seed, i))``;
* the condition checkers and ``sample_path`` draw counter-based uniforms:
  draw k of the stream with key ``key`` is the top 53 bits of
  ``splitmix64(key + k * PHI)`` (:func:`uniforms`), computed for a whole
  batch of streams at once in numpy ``uint64`` arithmetic.  Every uniform
  is a pure function of ``(seed, prefix, i, k)``.
"""

from __future__ import annotations

import random

import numpy as np

_MASK64 = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15


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


def derive_stream(key: int) -> random.Random:
    """The Mersenne Twister stream seeded with ``key``, one of :func:`stream_keys`."""
    return random.Random(key)


def _splitmix64_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` elementwise, overwriting the ``uint64`` array x.

    Array arithmetic wraps modulo 2**64 silently, as the scalar masks do.
    """
    x += np.uint64(PHI)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
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
    step = np.asarray(k, dtype=np.uint64) * np.uint64(PHI)
    bits = _splitmix64_inplace(np.asarray(keys, dtype=np.uint64) + step)
    bits >>= np.uint64(11)
    return bits * 2.0**-53
