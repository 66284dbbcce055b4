"""Slow but obviously-correct references that the library's inversions,
its seed and uniform hashes and its simulation loop are tested against.
They are independent implementations, not used by the library itself:
the hash below is written here on Python integers, and nothing in this
module imports one of the library's."""

import copy
import itertools
import math

import mpmath
import numpy as np

from bandit_switch import EmpiricalDistribution, indices
from bandit_switch._rng import CH_REWARD, CH_TIE
from bandit_switch._vector import _tie_break
from bandit_switch.kinf import kinf
from bandit_switch.verification import _ORACLE_BLOCK_BYTES


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The splitmix64 finalizer (Stafford mix 13) on one Python integer,
    taken mod 2^64: the bit-exact reference for ``_rng._mix64_inplace``."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def derive_key(seed: int, *path: int) -> int:
    """The 64-bit key of a base seed and an integer path, chained one
    Python-integer hash at a time: the reference for ``_rng.derive_key``."""
    h = mix64(seed ^ _GAMMA)
    for p in path:
        h = mix64((h + _GAMMA) ^ mix64(p))
    return h


def unit_uniform(key: int, step: int, channel: int) -> float:
    """Uniform in [0, 1) attached to one (key, step, channel) triple, one
    Python-integer hash at a time: the bit-exact reference for
    ``_rng.unit_uniform_array``."""
    z = mix64(key ^ mix64(2 * step + channel))
    return (z >> 11) * 2.0**-53


def exp_kl_index(mean_hat: float, threshold: float) -> float:
    """Upper-confidence mean for the exponential family, clamped to [0, 1],
    by bisection.

    Solves for the largest m >= mean_hat with
    mean_hat/m - 1 + ln(m / mean_hat) <= threshold (the exponential KL on
    means), then clamps the root for use as a [0, 1] reward index.
    """
    if mean_hat <= 0.0:
        raise ValueError("mean_hat must be positive")
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    if threshold == 0.0:
        return min(mean_hat, 1.0)

    def div(m: float) -> float:
        return mean_hat / m - 1.0 + math.log(m / mean_hat)

    lo = mean_hat
    hi = mean_hat * math.exp(1.0 + threshold)  # div(hi) > threshold
    for _ in range(80):
        if hi - lo < 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        if div(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return min(lo, 1.0)


def klucb_index(nu, threshold: float) -> float:
    """sup { mu : kinf(nu, mu) <= threshold } by bisection in mu over the
    Pinsker bracket [mean, mean + sqrt(threshold / 2)], re-bracketed toward
    1 when the divergence at the cap still fits the budget; a result within
    1e-12 of 1 counts as 1."""
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    m = nu.mean
    if threshold == 0.0:
        return m
    if m >= 1.0:
        return 1.0
    cap = min(1.0, m + math.sqrt(0.5 * threshold))
    if cap < 1.0 and kinf(nu, cap).value <= threshold:
        lo, hi = cap, 1.0
    else:
        lo, hi = m, cap
    for _ in range(80):
        if hi - lo < 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or mid >= 1.0:
            break
        if kinf(nu, mid).value <= threshold:
            lo = mid
        else:
            hi = mid
    return 1.0 if 1.0 - lo <= 1e-12 else lo


def bern_kl_root_y(p: float, threshold: float, dps: int = 40):
    """Bracket [lo, hi], as ``dps``-digit mpmath numbers, of the root in
    y = -ln(1 - mu) of kl(p, mu) = threshold on mu >= p, for p in (0, 1)
    and threshold > 0, by bisection until hi - lo <= 10^-(dps - 5) hi."""
    with mpmath.workdps(dps):
        p, d = mpmath.mpf(p), mpmath.mpf(threshold)
        q = 1 - p

        def kl(y):  # p ln(p / mu) + q ln(q / (1 - mu)) at mu = 1 - e^-y
            return p * (mpmath.log(p) - mpmath.log(-mpmath.expm1(-y))) + q * (mpmath.log(q) + y)

        lo = -mpmath.log1p(-p)  # kl = 0
        hi = lo + 1
        while kl(hi) <= d:
            lo, hi = hi, 2 * hi
        tol = mpmath.mpf(10) ** (5 - dps)
        while hi - lo > tol * hi:
            mid = (lo + hi) / 2
            if kl(mid) <= d:
                lo = mid
            else:
                hi = mid
        return lo, hi


def grid_max(dist, mu: float, lam_grid) -> float:
    """Largest value of the K_inf dual objective sum_j w_j log1p(-lam z_j),
    z_j = (x_j - mu) / (1 - mu), over every point of ``lam_grid``: the
    exhaustive scan, in the grid oracle's blocks and with its operations,
    so that each grid value comes out with the same bits."""
    z = (dist.values - mu) / (1.0 - mu)
    w = dist.weights
    rows = max(1, _ORACLE_BLOCK_BYTES // (8 * z.size))
    buf = np.empty((rows, z.size))
    best = -math.inf
    with np.errstate(divide="ignore"):
        for lo in range(0, lam_grid.size, rows):
            lam = lam_grid[lo : lo + rows]
            view = buf[: lam.size]
            np.multiply.outer(lam, -z, out=view)
            np.log1p(view, out=view)
            best = max(best, float((view @ w).max()))
    return best


def switch_value(tau, k: int, exponent: float = 0.2) -> np.ndarray:
    """The switch threshold by the former two-branch rule, elementwise over
    an array of ``tau``: the exponent 8/9 floors the ratio tau/K before the
    power, any other floors the power, so that the theoretical threshold
    floor((tau/K)^(1/5)) is an integer.  Each power is Python's float pow,
    as the library takes it; numpy's array power differs from it in the
    last bit at about one element in twenty."""
    delayed = abs(exponent - 8.0 / 9.0) < 1e-12
    r = np.asarray(tau, dtype=float) / k
    base = np.floor(r) if delayed else r
    power = np.fromiter(map(pow, base.ravel().tolist(), itertools.repeat(exponent)), float, base.size)
    return power.reshape(base.shape) if delayed else np.floor(power).reshape(base.shape)


def scalar_episode(bandit, spec, horizon: int, seed: int, bins=None):
    """One run by a plain per-step loop over one run's (1, K) counts, sums
    and empirical distributions, the reference for ``run_episode``: each
    arm once, then the argmax of the public ``indices``, with
    scalar-hashed uniforms and one reward drawn at a time, which enters
    its distribution rounded by Python's ``round(x * bins) / bins`` when
    ``bins`` is set.  Returns (trajectory, pulls, actions)."""
    key = mix64(seed)
    k = bandit.k
    n, s = np.zeros((1, k)), np.zeros((1, k))
    dists = [EmpiricalDistribution() for _ in range(k)]
    trajectory = np.empty(horizon)
    actions = np.empty(horizon, dtype=np.int32)
    regret = 0.0
    for step in range(1, horizon + 1):
        if step <= k:
            a = step - 1
        else:
            a = int(_tie_break(indices(spec, n, s, step - 1, dists), unit_uniform(key, step, CH_TIE))[0])
        reward = float(bandit.arms[a].quantile(unit_uniform(key, step, CH_REWARD)))
        n[0, a] += 1.0
        s[0, a] += reward
        dists[a]._push(reward if bins is None else round(reward * bins) / bins)
        regret += bandit.gaps[a]
        trajectory[step - 1] = regret
        actions[step - 1] = a
    return trajectory, n[0].astype(np.int64), actions


def full_evaluation(bandit, specs, horizon: int, seeds, empirical: bool = False, bins=None) -> np.ndarray:
    """The actions of ``_vector.simulate(bandit, specs, horizon, seeds,
    ..., empirical=empirical, bins=bins)`` by a plain per-step loop that
    evaluates every index: the seeds cut into one block per policy, each
    arm once, then each block's public ``indices`` on its rows (every
    Bernoulli-KL cell inverted, the cells' empirical distributions given
    when ``empirical``) and the ``_tie_break`` of each row, with
    scalar-hashed uniforms and one reward drawn and pushed at a time.
    Returns the (runs, horizon) actions."""
    k, runs = bandit.k, len(seeds)
    width = runs // len(specs)
    keys = [mix64(sd) for sd in seeds]
    n, s = np.zeros((runs, k)), np.zeros((runs, k))
    dists = [[EmpiricalDistribution() for _ in range(k)] for _ in range(runs)]
    actions = np.empty((runs, horizon), dtype=np.int32)
    for step in range(1, horizon + 1):
        if step <= k:
            actions[:, step - 1] = step - 1
        else:
            for i, spec in enumerate(specs):
                rows = slice(i * width, (i + 1) * width)
                laws = [dists[r][a] for a in range(k) for r in range(runs)[rows]] if empirical else None
                u = np.array([unit_uniform(keys[r], step, CH_TIE) for r in range(runs)[rows]])
                actions[rows, step - 1] = _tie_break(indices(spec, n[rows], s[rows], step - 1, laws), u)
        for r in range(runs):
            a = int(actions[r, step - 1])
            reward = float(bandit.arms[a].quantile(unit_uniform(keys[r], step, CH_REWARD)))
            n[r, a] += 1.0
            s[r, a] += reward
            dists[r][a]._push(reward if bins is None else round(reward * bins) / bins)
    return actions


def replay_checkpoints(bandit, seeds, actions, steps, specs):
    """The per-step reference for the index-ordering check's checkpoint
    states: each logged run of ``actions`` (runs, T) replayed on its own
    (1, K) counts and sums, its rewards hashed one at a time by the scalar
    ``unit_uniform`` and pushed into the empirical distributions one by
    one.  Yields (run, step, counts, sums, dists, index vectors of
    ``specs`` on the distributions) at each of ``steps``."""
    targets = set(int(t) for t in steps)
    for r, seed in enumerate(seeds):
        key = mix64(seed)
        n, s = np.zeros((1, bandit.k)), np.zeros((1, bandit.k))
        dists = [EmpiricalDistribution() for _ in range(bandit.k)]
        for step in range(1, actions.shape[1] + 1):
            a = int(actions[r, step - 1])
            reward = float(bandit.arms[a].quantile(unit_uniform(key, step, CH_REWARD)))
            n[0, a] += 1.0
            s[0, a] += reward
            dists[a]._push(reward)
            if step in targets:
                yield (
                    r,
                    step,
                    n[0].copy(),
                    s[0].copy(),
                    copy.deepcopy(dists),
                    [indices(spec, n, s, step, dists)[0] for spec in specs],
                )
