"""Counter-based randomness for reproducible, order-independent simulation.

Every random quantity a simulation consumes is a pure function of
``(seed path, step, channel)``: rewards and tie-breaks are looked up, not
drawn from a stateful stream.  Runs therefore do not interact, results do
not depend on scheduling or on the degree of parallelism, and a single run
can be replayed in isolation.  No uniform depends on an action either, so
an engine may hash the uniforms of a block of steps ahead in one pass;
the values do not depend on the block length.

The hash is the splitmix64 finalizer (Stafford mix 13), applied to a key
chained over the integer path.  It is not cryptographic; it is more than
adequate for Monte-Carlo work.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Channels multiplex independent uniforms at the same step.
CH_REWARD = 0
CH_TIE = 1


def _u64(x) -> np.ndarray:
    """``x`` mod 2^64 as a new uint64 array of at least one dimension:
    from an integer, or from an integer array, whose entries wrap."""
    return np.array(x if isinstance(x, np.ndarray) else operator.index(x) & _MASK, dtype=np.uint64, ndmin=1)


def derive_key(seed: int, *path) -> np.ndarray:
    """Hash a base seed and an integer path into 64-bit stream keys, as a
    uint64 array: each path entry is an integer or an integer array, and
    the arrays broadcast together, giving one key per entry.  Every input
    counts mod 2^64.

    ``derive_key(seed, policy_index, run_indices)`` gives the canonical
    per-run seeds used by the Monte-Carlo harness.
    """
    h = _mix64_inplace(_u64(seed) ^ np.uint64(_GAMMA))
    for p in path:
        h = _mix64_inplace((h + np.uint64(_GAMMA)) ^ _mix64_inplace(_u64(p)))
    return h


def unit_uniform_array(keys: np.ndarray, step, channel: int) -> np.ndarray:
    """Uniform in [0, 1) attached to each (key, step, channel) triple, over
    an array of uint64 keys: the top 53 bits of
    ``mix64(key ^ mix64(2 * step + channel))``, scaled by 2^-53, where
    ``mix64`` is the splitmix64 finalizer of :func:`_mix64_inplace`.

    ``step`` is an integer, giving one value per key, or a 1-D array of
    steps, giving one row per step: row ``i`` holds the uniforms of step
    ``step[i]``.  Each entry depends on its own triple only, so hashing a
    block of steps at once or one step at a time yields the same values.
    """
    steps = np.asarray(step, dtype=np.uint64)
    salt = _mix64_inplace(np.uint64(2) * steps.reshape(-1, 1) + np.uint64(channel))
    z = _mix64_inplace(keys ^ salt)
    z >>= np.uint64(11)
    u = z.astype(np.float64)  # exact below 2^53, and without the ufunc's casting buffer
    u *= 2.0**-53
    return u if steps.ndim else u[0]


def mix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of every entry of ``z``, integers below
    2^64, on one uint64 copy of it: ``z`` itself is never written."""
    return _mix64_inplace(np.array(z, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, a bijection on 64-bit integers, of every
    entry of the uint64 array ``z``, written over it; holds one shift
    temporary besides ``z``.  The package's only implementation of it."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z
