"""The index kernel of both simulation engines, and the vectorised engine.

:func:`_indices` is the only place an index is computed.  It works on
state arrays of shape (runs, arms): the vectorised engine
:func:`simulate` calls it on a batch of independent runs, the scalar
reference engine (:func:`.policies.select_arm`, driven by
:mod:`.simulator`) on one run, shape (1, arms).  Rewards and tie-breaks
come from the counter-based hash in :mod:`._rng`, and the Bernoulli and
exponential KL are inverted by one Newton iteration, :func:`_newton_down`,
stopped element by element; so each index, and each run's trajectory, is
the same whether it is computed here, in another batch split, or one run
at a time.

The empirical-likelihood families (klucb*, imed) take one of two branches,
chosen by the input.  Given one run's empirical distributions, they use
the divergence ``kinf`` on them, arm by arm, for any support.  Without
them every arm must be supported on {0, 1}, so that the empirical
distribution reduces to its mean and the divergence to the Bernoulli KL.
The batch engine takes the second branch, hence :func:`supports`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._rng import CH_REWARD, CH_TIE, mix64_array, unit_uniform_array
from .distributions import BanditInstance, Bernoulli, Dirac
from .kinf import kinf, klucb_index

if TYPE_CHECKING:
    from .policies import PolicySpec

_EMPIRICAL_EXPONENT = 8.0 / 9.0


def supports(bandit: BanditInstance, spec: PolicySpec) -> bool:
    """Whether the batch engine can simulate (bandit, spec) exactly: always,
    unless the policy needs the empirical distributions and an arm is not
    supported on {0, 1}."""
    return not spec.needs_distributions or all(arm.support_binary for arm in bandit.arms)


def _explo(kind: str, x):
    """Exploration function, elementwise: ln_+ x, or the augmented
    x -> ln_+(x (1 + ln_+^2 x)) for ``augmented_phi``."""
    lp = np.log(np.maximum(x, 1.0))
    if kind == "augmented_phi":
        return np.log(np.maximum(x * (1.0 + lp * lp), 1.0))
    return lp


def log_plus(x: float) -> float:
    """Positive part of the natural logarithm."""
    if x <= 0.0:
        raise ValueError("log_plus requires a positive argument")
    return float(_explo("log_plus", x))


def phi(x: float) -> float:
    """Augmented exploration x -> ln_+(x (1 + ln_+^2 x)); non-decreasing,
    and never below ln_+."""
    if x <= 0.0:
        raise ValueError("phi requires a positive argument")
    return float(_explo("augmented_phi", x))


def _moss(mean, n, ratio: float, explo: str):
    return mean + np.sqrt(_explo(explo, ratio / n) / (2.0 * n))


def moss_index(mean: float, n: int, ratio: float, explo: str = "log_plus") -> float:
    """mean + sqrt(explo(ratio / n) / (2 n)), the minimax bonus template."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(_moss(mean, n, ratio, explo))


def switch_value(tau: float, k: int, exponent: float = 0.2) -> float:
    """Switch threshold as a real number, used by the branch test.

    Two conventions, matching how each variant is defined: the exponent
    8/9 floors the ratio before exponentiation (empirical variant), any
    other exponent floors the power (theoretical variant, where the
    threshold is an integer by definition).
    """
    if tau < 1 or k < 1:
        raise ValueError("tau and k must be >= 1")
    if abs(exponent - _EMPIRICAL_EXPONENT) < 1e-12:
        return math.floor(tau / k) ** exponent
    return float(math.floor((tau / k) ** exponent))


def switch_threshold(tau: int, k: int, exponent: float = 0.2) -> int:
    """Integer switch threshold (the real value of :func:`switch_value`,
    floored for display)."""
    return int(math.floor(switch_value(tau, k, exponent)))


def _newton_down(f, x, *args) -> np.ndarray:
    """Elementwise root of a convex increasing function by Newton from a
    start ``x`` at or above it; ``f(x, *args)`` is the step value / slope,
    ``args`` per-element parameters.  Exact steps from above are positive
    and shrink, so each element is frozen on its own after a step below
    1e-13 or one that does not shrink, which marks the floating-point
    floor.  An element not frozen in 100 iterations, or a non-finite
    result, raises."""
    going = np.ones(x.shape, dtype=bool)
    prev = np.full_like(x, np.inf)
    for _ in range(100):
        step = f(x, *args)
        x = x - step * going
        going &= (step >= 1e-13) & (step < prev)
        prev = step
        if not going.any():
            break
    bad = going | ~np.isfinite(x)
    if bad.any():
        i = np.argmax(bad)
        raise RuntimeError(f"Newton inversion did not converge at parameters {[float(a[i]) for a in args]}")
    return x


def bern_klucb(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Elementwise sup { mu : kl(p, mu) <= d } for Bernoulli KL, by Newton in
    y = -ln(1 - mu): kl(p, mu(y)) - d is increasing and convex with slope
    (mu - p)/mu, and y0 = (d - p ln p - q ln q)/q, which solves the
    relaxation that drops the -p ln(mu) <= 0 term, is at or above the root."""

    def step(y, p, lp, q, qlq, d):
        mu = 1.0 - np.exp(-y)
        return (p * (lp - np.log(mu)) + qlq + q * y - d) / ((mu - p) / mu)

    out = np.where(p > 0.0, p, -np.expm1(-d))  # kl(0, mu) = -ln(1 - mu); p = 1 stays 1
    gen = (d > 0.0) & (p > 0.0) & (p < 1.0)
    if gen.any():
        p, d = p[gen], d[gen]
        q = 1.0 - p
        lp, qlq = np.log(p), q * np.log(q)
        out[gen] = 1.0 - np.exp(-_newton_down(step, (d - p * lp - qlq) / q, p, lp, q, qlq, d))
    return out


def exp_klucb(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Elementwise largest m with h/m - 1 + ln(m/h) <= d, clamped to [0,1]:
    Newton in u = ln(m/h) on the convex increasing e^-u - 1 + u - d, from
    u0 = 1 + d, above the root."""

    def step(u, d):
        eu = np.exp(-u)
        return (eu - 1.0 + u - d) / (1.0 - eu)

    u = np.zeros_like(h)
    act = d > 0.0
    u[act] = _newton_down(step, 1.0 + d[act], d[act])
    return np.minimum(h * np.exp(u), 1.0)


def _bern_kl_vec(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # kl(p, q) with q strictly interior; p may hit 0 or 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0.0, p * np.log(p / q), 0.0)
        t2 = np.where(p < 1.0, (1.0 - p) * np.log((1.0 - p) / (1.0 - q)), 0.0)
    return t1 + t2


@dataclass
class _Ctx:
    """What the kernel and the reward draw read: the policy, and the arms
    (with their parameters as arrays when every arm is Bernoulli, resp.
    Dirac).  The kernel reads only ``spec``."""

    spec: PolicySpec
    arms: tuple = ()
    bern_p: np.ndarray | None = None
    dirac_v: np.ndarray | None = None


def _make_ctx(bandit: BanditInstance, spec: PolicySpec) -> _Ctx:
    arms = bandit.arms
    bern_p = None
    dirac_v = None
    if all(isinstance(a, Bernoulli) for a in arms):
        bern_p = np.array([a.p for a in arms])
    elif all(isinstance(a, Dirac) for a in arms):
        dirac_v = np.array([a.value for a in arms])
    return _Ctx(spec=spec, arms=arms, bern_p=bern_p, dirac_v=dirac_v)


def _draw(ctx: _Ctx, action: np.ndarray, u: np.ndarray) -> np.ndarray:
    if ctx.bern_p is not None:
        return np.where(u < ctx.bern_p[action], 1.0, 0.0)
    if ctx.dirac_v is not None:
        return ctx.dirac_v[action]
    r = np.empty(action.shape)
    for a, arm in enumerate(ctx.arms):
        mask = action == a
        if mask.any():
            r[mask] = arm.quantile(u[mask])
    return r


def _tie_break(scores: np.ndarray, u, minimize: bool) -> np.ndarray:
    """Per run, the arm of best score; among m tied arms, the i-th in arm
    order for u in [i/m, (i+1)/m)."""
    best = scores.min(axis=1, keepdims=True) if minimize else scores.max(axis=1, keepdims=True)
    rank = (scores == best).cumsum(axis=1)  # last column: number tied
    pick = (u * rank[:, -1]).astype(np.int64)
    return (rank > pick[:, None]).argmax(axis=1)


def _kl_upper(p: np.ndarray, d: np.ndarray, dists, mask=None) -> np.ndarray:
    """sup { mu : divergence <= d } entrywise, for the arms selected by
    ``mask`` (all when None): ``klucb_index`` on each arm's empirical
    distribution when one run's ``dists`` are given, else the Bernoulli KL
    on the mean ``p``."""
    if dists is None:
        return bern_klucb(p, d)
    arms = range(len(dists)) if mask is None else np.flatnonzero(mask)
    return np.array([klucb_index(dists[a], x) for a, x in zip(arms, d.ravel().tolist())]).reshape(p.shape)


def _indices(ctx: _Ctx, n: np.ndarray, s: np.ndarray, t: int, dists=None) -> np.ndarray:
    """Index of every (run, arm) at time ``t`` from pull counts ``n`` (all
    >= 1) and reward sums ``s``, both of shape (runs, arms).  For imed the
    index is a score to *minimise*; every other family maximises.

    ``dists``, one run's empirical distributions (runs = 1), selects the
    ``kinf`` branch of the empirical-likelihood families; without it they
    take the Bernoulli branch, exact for arms supported on {0, 1}.
    """
    spec = ctx.spec
    fam = spec.family
    k = n.shape[1]
    mean = s / n

    if fam == "ucb":
        c = 2.0 * math.log(t) if spec.ucb_classic else math.log(t) / 2.0
        return mean + np.sqrt(c / n)
    if fam in ("moss", "moss-anytime"):
        ratio = (spec.horizon if fam == "moss" else t) / k
        return _moss(mean, n, ratio, spec.exploration)
    if fam == "klucb-gauss":
        ref = spec.horizon if spec.horizon is not None else t
        return mean + np.sqrt(2.0 * spec.sigma**2 * _explo(spec.exploration, ref / (k * n)) / n)
    if fam == "klucb-exp":
        ref = spec.horizon if spec.horizon is not None else t
        d = _explo(spec.exploration, ref / (k * n)) / n
        return exp_klucb(np.maximum(mean, 1e-12), d)
    if fam in ("klucb", "klucb-anytime"):
        ref = spec.horizon if fam == "klucb" else t
        d = _explo(spec.exploration, ref / (k * n)) / n
        return _kl_upper(mean, d, dists)
    if fam in ("klucb-switch", "klucb-switch-anytime"):
        ref = spec.horizon if fam == "klucb-switch" else t
        ratio = ref / k
        out = _moss(mean, n, ratio, spec.exploration)
        f = switch_value(ref, k, spec.switch_exponent)
        kl_branch = n <= f
        if kl_branch.any():
            n_c = n[kl_branch]
            d_c = _explo(spec.exploration, ratio / n_c) / n_c
            out[kl_branch] = _kl_upper(mean[kl_branch], d_c, dists, kl_branch)
        return out
    if fam == "imed":
        pmax = np.clip(mean.max(axis=1), 1e-9, 1.0 - 1e-9)[:, None]
        if dists is None:
            kl = np.where(mean >= pmax, 0.0, _bern_kl_vec(mean, pmax))
        else:
            kl = np.zeros_like(mean)
            for a in np.flatnonzero(mean < pmax):
                kl[0, a] = kinf(dists[a], float(pmax[0, 0])).value
        return n * kl + np.log(n)
    raise AssertionError(f"unhandled family {fam!r}")


def simulate(
    bandit: BanditInstance,
    spec: PolicySpec,
    horizon: int,
    seeds,
    record_grid,
    record_actions: bool = False,
):
    """Simulate one run per seed; return pseudo-regret at the recorded
    steps as a (runs, grid) array, plus the action log when asked."""
    k = bandit.k
    runs = len(seeds)
    keys = mix64_array(np.asarray(seeds, dtype=np.uint64))
    ctx = _make_ctx(bandit, spec)
    gaps = bandit.gaps
    minimize = spec.family == "imed"

    n = np.zeros((runs, k))
    s = np.zeros((runs, k))
    regret = np.zeros(runs)
    gpos = np.full(horizon + 1, -1, dtype=np.int64)
    for g, step in enumerate(record_grid):
        gpos[step] = g
    out = np.empty((runs, len(record_grid)))
    actions = np.empty((runs, horizon), dtype=np.int32) if record_actions else None
    rows = np.arange(runs)

    for step in range(1, k + 1):
        a = step - 1
        u = unit_uniform_array(keys, step, CH_REWARD)
        r = np.asarray(bandit.arms[a].quantile(u), dtype=float)
        n[:, a] += 1.0
        s[:, a] += r
        regret += gaps[a]
        if actions is not None:
            actions[:, step - 1] = a
        if gpos[step] >= 0:
            out[:, gpos[step]] = regret

    for step in range(k + 1, horizon + 1):
        t = step - 1
        scores = _indices(ctx, n, s, t)
        u_tie = unit_uniform_array(keys, step, CH_TIE)
        action = _tie_break(scores, u_tie, minimize)
        u = unit_uniform_array(keys, step, CH_REWARD)
        r = _draw(ctx, action, u)
        s[rows, action] += r
        n[rows, action] += 1.0
        regret += gaps[action]
        if actions is not None:
            actions[:, step - 1] = action
        if gpos[step] >= 0:
            out[:, gpos[step]] = regret

    if record_actions:
        return out, actions
    return out
