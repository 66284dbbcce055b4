"""Slow but obviously-correct references that the library's inversions,
its uniform hash and its simulation loop are tested against.  They are
independent implementations, not used by the library itself."""

import copy
import math

import mpmath
import numpy as np

from bandit_switch import PolicyState, indices, select_arm, update
from bandit_switch._rng import CH_REWARD, CH_TIE, mix64
from bandit_switch.kinf import kinf
from bandit_switch.verification import _ORACLE_BLOCK_BYTES


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


def scalar_episode(bandit, spec, horizon: int, seed: int, bins=None):
    """One run by a plain per-step loop over the public one-run API, the
    reference for ``run_episode``: each arm once, then the index policy,
    with scalar-hashed uniforms and one reward drawn at a time.  Returns
    (trajectory, pulls, actions)."""
    key = mix64(seed)
    k = bandit.k
    state = PolicyState.fresh(k, bins=bins)
    trajectory = np.empty(horizon)
    actions = np.empty(horizon, dtype=np.int32)
    regret = 0.0
    for step in range(1, horizon + 1):
        if step <= k:
            a = step - 1
        else:
            a = select_arm(spec, state, tie_u=unit_uniform(key, step, CH_TIE))
        update(state, a, float(bandit.arms[a].quantile(unit_uniform(key, step, CH_REWARD))))
        regret += bandit.gaps[a]
        trajectory[step - 1] = regret
        actions[step - 1] = a
    return trajectory, state.counts[0].astype(np.int64), actions


def replay_checkpoints(bandit, seeds, actions, steps, specs):
    """The per-step reference for the index-ordering check's checkpoint
    states: each logged run of ``actions`` (runs, T) stepped through the
    one-run API, its rewards hashed one at a time by the scalar
    ``unit_uniform`` and pushed into the empirical distributions one by
    one.  Yields (run, step, counts, sums, dists, index vectors of
    ``specs``) at each of ``steps``."""
    targets = set(int(t) for t in steps)
    for r, seed in enumerate(seeds):
        key = mix64(seed)
        state = PolicyState.fresh(bandit.k)
        for step in range(1, actions.shape[1] + 1):
            a = int(actions[r, step - 1])
            update(state, a, float(bandit.arms[a].quantile(unit_uniform(key, step, CH_REWARD))))
            if step in targets:
                yield (
                    r,
                    step,
                    state.counts[0].copy(),
                    state.sums[0].copy(),
                    copy.deepcopy(state.dists),
                    [indices(spec, state) for spec in specs],
                )
