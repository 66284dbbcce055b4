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

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Channels multiplex independent uniforms at the same step.
CH_REWARD = 0
CH_TIE = 1


def mix64(z: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MUL1) & _MASK
    z ^= z >> 27
    z = (z * _MUL2) & _MASK
    z ^= z >> 31
    return z


def derive_key(seed: int, *path: int) -> int:
    """Hash a base seed and an integer path into a 64-bit stream key.

    ``derive_key(seed, policy_index, run_index)`` is the canonical
    per-run seed used by the Monte-Carlo harness.
    """
    h = mix64(seed ^ _GAMMA)
    for p in path:
        h = mix64((h + _GAMMA) ^ mix64(p))
    return h


def unit_uniform(key: int, step: int, channel: int) -> float:
    """Uniform in [0, 1) attached to one (key, step, channel) triple."""
    z = mix64(key ^ mix64(2 * step + channel))
    return (z >> 11) * 2.0**-53


def unit_uniform_array(keys: np.ndarray, step, channel: int) -> np.ndarray:
    """Vectorised :func:`unit_uniform` over an array of uint64 keys.

    ``step`` is an integer, giving one value per key, or a 1-D array of
    steps, giving one row per step: row ``i`` holds the uniforms of step
    ``step[i]``.  Bit-for-bit identical to the scalar version entry by
    entry, so hashing a block of steps at once or one step at a time
    yields the same values.
    """
    steps = np.asarray(step, dtype=np.uint64)
    salt = _mix64_inplace(np.uint64(2) * steps.reshape(-1, 1) + np.uint64(channel))
    z = _mix64_inplace(keys ^ salt)
    z >>= np.uint64(11)
    u = z.astype(np.float64)  # exact below 2^53, and without the ufunc's casting buffer
    u *= 2.0**-53
    return u if steps.ndim else u[0]


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mix64` for uint64 arrays, on one copy of ``z``:
    ``z`` itself is never written."""
    return _mix64_inplace(np.array(z, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every entry of the uint64 array ``z``, written over
    it; holds one shift temporary besides ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z
