"""The index kernel and the one simulation loop.

:func:`_indices` is the only place an index is computed, and
:func:`simulate` the only per-step loop.  Both work on state arrays of
shape (runs, arms): a batch of independent runs, or one run (also
:func:`.policies.select_arm`'s state).  Rewards and tie-breaks come from
the counter-based hash in :mod:`._rng`, and the Bernoulli and exponential
KL are inverted by one Newton iteration, :func:`_newton_down`, stopped
element by element; so each run's trajectory is the same in any batch.

The empirical-likelihood families (klucb*, imed) take one of two branches,
chosen by the input.  Given each (run, arm) cell's empirical distribution
(``simulate(..., empirical=True)``), they use the divergence ``kinf`` on
it, for any support.  Without them every arm must be supported on {0, 1},
so that the empirical distribution reduces to its mean and the divergence
to the Bernoulli KL, hence :func:`supports`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._rng import CH_REWARD, CH_TIE, mix64_array, unit_uniform_array
from .distributions import BanditInstance, Bernoulli, EmpiricalDistribution
from .kinf import _bern_kl, kinf, klucb_index

if TYPE_CHECKING:
    from .policies import PolicySpec

_EMPIRICAL_EXPONENT = 8.0 / 9.0
# Uniforms hashed per channel in one pass of :func:`simulate` (256 KiB of
# float64): the block of steps is this many over the batch size, at most
# _BLOCK_STEPS, since hashing holds about two temporaries of its size.
_BLOCK_ELEMS = 1 << 15
_BLOCK_STEPS = 1 << 10


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
    x = x.copy()
    going = np.ones(x.shape, dtype=bool)
    prev = np.full_like(x, np.inf)
    for _ in range(100):
        step = f(x, *args)
        np.subtract(x, step, out=x, where=going)
        going &= step >= 1e-13
        going &= step < prev
        prev = step
        if not np.count_nonzero(going):
            break
    bad = going | ~np.isfinite(x)
    if np.count_nonzero(bad):
        i = np.argmax(bad)
        raise RuntimeError(f"Newton inversion did not converge at parameters {[float(a[i]) for a in args]}")
    return x


def bern_klucb(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Elementwise sup { mu : kl(p, mu) <= d } for Bernoulli KL, by Newton in
    y = -ln(1 - mu): kl(p, mu(y)) - d is increasing and convex with slope
    (mu - p)/mu.  Two starts lie at or above the root, and Newton starts at
    the lower: y0 = (d - p ln p - q ln q)/q, which solves the relaxation
    that drops the -p ln(mu) <= 0 term, and y_b = -ln(1 - mu_b), where
    mu_b = p + dq + sqrt(dq (dq + 2p)) solves (mu - p)^2 = 2 d mu q.  The
    bound holds because kl(p, mu) is the integral over [p, mu] of
    (x - p)/(x (1 - x)) dx, and x (1 - x) <= mu q there, so
    kl(p, mu) >= (mu - p)^2 / (2 mu q)."""

    def step(y, p, lp, q, qlq, d):
        mu = 1.0 - np.exp(-y)
        return (p * (lp - np.log(mu)) + qlq + q * y - d) / ((mu - p) / mu)

    out = np.where(p > 0.0, p, -np.expm1(-d))  # kl(0, mu) = -ln(1 - mu); p = 1 stays 1
    gen = (d > 0.0) & (p > 0.0) & (p < 1.0)
    if np.count_nonzero(gen):
        p, d = p[gen], d[gen]
        q = 1.0 - p
        lp, qlq = np.log(p), q * np.log(q)
        dq = d * q
        mu_b = p + dq + np.sqrt(dq * (dq + 2.0 * p))
        with np.errstate(divide="ignore"):  # mu_b >= 1 bounds nothing: y_b = inf
            y_b = -np.log1p(-np.minimum(mu_b, 1.0))
        y = np.minimum((d - p * lp - qlq) / q, y_b)
        out[gen] = 1.0 - np.exp(-_newton_down(step, y, p, lp, q, qlq, d))
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


@dataclass
class _Ctx:
    """What the kernel and the reward draw read: the policy, and the arms
    (with their parameters as an array when every arm is Bernoulli).  The
    kernel reads only ``spec``."""

    spec: PolicySpec
    arms: tuple = ()
    bern_p: np.ndarray | None = None


def _make_ctx(bandit: BanditInstance, spec: PolicySpec) -> _Ctx:
    arms = bandit.arms
    bern_p = np.array([a.p for a in arms]) if all(isinstance(a, Bernoulli) for a in arms) else None
    return _Ctx(spec=spec, arms=arms, bern_p=bern_p)


def _draw(ctx: _Ctx, action: np.ndarray, u: np.ndarray) -> np.ndarray:
    if ctx.bern_p is not None:
        return np.where(u < ctx.bern_p[action], 1.0, 0.0)
    if not np.count_nonzero(action != action[0]):  # one arm for every run, as for a lone run
        return ctx.arms[action[0]].quantile(u)
    r = np.empty(action.shape)
    for a, arm in enumerate(ctx.arms):
        mask = action == a
        if mask.any():
            r[mask] = arm.quantile(u[mask])
    return r


def _tie_break(scores: np.ndarray, u, minimize: bool) -> np.ndarray:
    """Per run, the arm of best score; among m tied arms, the i-th in arm
    order for u in [i/m, (i+1)/m).  Scores are finite, so every run has at
    least one best arm, and when no run has two the first best is the
    answer and the rank scan is skipped."""
    best = scores.min(axis=1, keepdims=True) if minimize else scores.max(axis=1, keepdims=True)
    tied = scores == best
    if np.count_nonzero(tied) == len(scores):
        return tied.argmax(axis=1)
    rank = tied.cumsum(axis=1)  # last column: number tied
    pick = (u * rank[:, -1]).astype(np.int64)
    return (rank > pick[:, None]).argmax(axis=1)


def _kl_upper(p: np.ndarray, d: np.ndarray, dists, mask=None) -> np.ndarray:
    """sup { mu : divergence <= d } entrywise, for the (run, arm) cells
    selected by ``mask`` (all when None): ``klucb_index`` on each cell's
    empirical distribution when ``dists`` are given, else the Bernoulli KL
    on the mean ``p``."""
    if dists is None:
        return bern_klucb(p, d)
    cells = range(len(dists)) if mask is None else np.flatnonzero(mask)
    return np.array([klucb_index(dists[c], x) for c, x in zip(cells, d.ravel().tolist())]).reshape(p.shape)


def _indices(ctx: _Ctx, n: np.ndarray, s: np.ndarray, t: int, dists=None) -> np.ndarray:
    """Index of every (run, arm) at time ``t`` from pull counts ``n`` (all
    >= 1) and reward sums ``s``, both of shape (runs, arms).  For imed the
    index is a score to *minimise*; every other family maximises.

    ``dists``, the empirical distribution of every cell in the flat
    ``run * arms + arm`` order, selects the ``kinf`` branch of the
    empirical-likelihood families; without it they take the Bernoulli
    branch, exact for arms supported on {0, 1}.
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
        e = _explo(spec.exploration, ref / k / n)  # the budget both branches read
        out = mean + np.sqrt(e / (2.0 * n))
        kl_branch = n <= switch_value(ref, k, spec.switch_exponent)
        if kl_branch.any():
            out[kl_branch] = _kl_upper(mean[kl_branch], (e / n)[kl_branch], dists, kl_branch)
        return out
    if fam == "imed":
        pmax = np.clip(mean.max(axis=1), 1e-9, 1.0 - 1e-9)[:, None]
        if dists is None:
            kl = np.where(mean >= pmax, 0.0, _bern_kl(mean, pmax))
        else:
            kl = np.zeros_like(mean)
            for c in np.flatnonzero(mean < pmax):
                kl.flat[c] = kinf(dists[c], float(pmax[c // k, 0])).value
        return n * kl + np.log(n)
    raise AssertionError(f"unhandled family {fam!r}")


def simulate(
    bandit: BanditInstance,
    spec: PolicySpec,
    horizon: int,
    seeds,
    record_grid,
    record_actions: bool = False,
    *,
    empirical: bool = False,
    bins: int | None = None,
):
    """Simulate one run per seed; return pseudo-regret at the recorded
    steps as a (runs, grid) array, plus the action log when asked.  With
    ``empirical``, each (run, arm) cell keeps its empirical distribution
    (atoms rounded to ``bins`` when set) for the ``kinf`` branch.

    The uniforms of both channels are hashed for a block of steps at a
    time, about ``_BLOCK_ELEMS`` per channel; they do not depend on the
    block length, so neither does any output bit.
    """
    k = bandit.k
    runs = len(seeds)
    keys = mix64_array(np.asarray(seeds, dtype=np.uint64))
    ctx = _make_ctx(bandit, spec)
    gaps = bandit.gaps
    minimize = spec.family == "imed"

    n = np.zeros((runs, k))
    s = np.zeros((runs, k))
    n_cells, s_cells = n.reshape(-1), s.reshape(-1)  # views: cell (run, arm) is run*k + arm
    dists = [EmpiricalDistribution(bins=bins) for _ in range(runs * k)] if empirical else None
    row_base = np.arange(runs) * k
    regret = np.zeros(runs)
    gpos = np.full(horizon + 1, -1, dtype=np.int64)
    for g, step in enumerate(record_grid):
        gpos[step] = g
    out = np.empty((runs, len(record_grid)))
    actions = np.empty((runs, horizon), dtype=np.int32) if record_actions else None

    block = max(1, min(_BLOCK_ELEMS // runs, _BLOCK_STEPS, horizon))
    for lo in range(1, horizon + 1, block):
        steps = np.arange(lo, min(lo + block, horizon + 1))
        u_ties = unit_uniform_array(keys, steps, CH_TIE)
        u_rewards = unit_uniform_array(keys, steps, CH_REWARD)
        for step, u_tie, u in zip(steps.tolist(), u_ties, u_rewards):
            if step <= k:  # each arm once, in order
                action = np.full(runs, step - 1)
            else:
                # ``scores`` stays referenced until the next step's is built:
                # freeing every (runs, K) temporary at once lets malloc trim
                # the heap, and large batches then page-fault it back each step.
                scores = _indices(ctx, n, s, step - 1, dists)
                action = _tie_break(scores, u_tie, minimize)
            r = _draw(ctx, action, u)
            cell = row_base + action
            s_cells[cell] += r
            n_cells[cell] += 1.0
            if dists is not None:
                for c, x in zip(cell.tolist(), r.tolist()):
                    dists[c]._push(x)
            regret += gaps[action]
            if actions is not None:
                actions[:, step - 1] = action
            if gpos[step] >= 0:
                out[:, gpos[step]] = regret

    if record_actions:
        return out, actions
    return out
