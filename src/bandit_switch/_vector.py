"""The index kernel of both simulation engines, and the vectorised engine.

:func:`_indices` is the only place an index is computed.  It works on
state arrays of shape (runs, arms): the vectorised engine
:func:`simulate` calls it on a batch of independent runs, the scalar
reference engine (:func:`.policies.select_arm`, driven by
:mod:`.simulator`) on one run, shape (1, arms).  Because rewards and
tie-breaks come from the counter-based hash in :mod:`._rng`, each run's
trajectory is the same whether it is simulated here, in another batch
split, or one run at a time.

The empirical-likelihood families (klucb*, imed) take one of two branches,
chosen by the input.  Given one run's empirical distributions, they use
the divergence ``kinf`` on them, arm by arm, for any support.  Without
them every arm must be supported on {0, 1}, so that the empirical
distribution reduces to its mean: the divergence is then the Bernoulli
KL, inverted by a guarded Newton iteration in the variable
y = -ln(1 - mu), where the problem is concave and well-conditioned all the
way to mu -> 1.  The batch engine takes the second branch, hence
:func:`supports`.
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


def bern_klucb(p: np.ndarray, d: np.ndarray, iters: int = 40) -> np.ndarray:
    """Elementwise sup { mu : kl(p, mu) <= d } for Bernoulli KL.

    Newton in y = -ln(1 - mu), where the objective
    h(y) = kl(p, mu(y)) - d is increasing and convex with the simple
    derivative h'(y) = (mu - p)/mu.  The start
    y0 = (d - p ln p - q ln q)/q sits at or above the root (it solves the
    relaxation that drops the -p ln(mu) <= 0 term), so the iteration
    decreases monotonically and converges quadratically.
    """
    out = p.copy()
    act = d > 0.0
    if not act.any():
        return out
    ones = act & (p >= 1.0)
    out[ones] = 1.0
    zeros = act & (p <= 0.0)
    if zeros.any():
        out[zeros] = -np.expm1(-d[zeros])
    gen = act & (p > 0.0) & (p < 1.0)
    if gen.any():
        pg = p[gen]
        dg = d[gen]
        qg = 1.0 - pg
        lp = np.log(pg)
        lq = np.log(qg)
        y = (dg - pg * lp - qg * lq) / qg
        for _ in range(iters):
            mu = 1.0 - np.exp(-y)
            h = pg * (lp - np.log(mu)) + qg * lq + qg * y - dg
            hp = (mu - pg) / mu
            step = h / np.maximum(hp, 1e-300)
            y = y - step
            if np.max(np.abs(step)) < 1e-13:
                break
        out[gen] = 1.0 - np.exp(-y)
    return out


def exp_klucb(h: np.ndarray, d: np.ndarray, iters: int = 30) -> np.ndarray:
    """Elementwise largest m with h/m - 1 + ln(m/h) <= d, clamped to [0,1].

    Newton in u = ln(m/h) on the convex increasing map e^-u - 1 + u - d,
    started from u0 = 1 + d (above the root), hence monotone decreasing.
    """
    u = np.full_like(h, 1.0)
    u += d
    act = d > 0.0
    for _ in range(iters):
        eu = np.exp(-u)
        g = eu - 1.0 + u - d
        gp = 1.0 - eu
        step = np.where(act & (gp > 0.0), g / np.maximum(gp, 1e-300), 0.0)
        u = u - step
        if np.max(np.abs(step)) < 1e-13:
            break
    m = h * np.exp(np.where(act, u, 0.0))
    return np.minimum(m, 1.0)


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
