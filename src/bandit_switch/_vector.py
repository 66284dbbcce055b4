"""The index kernel and the one simulation loop.

:func:`_indices` is the only place an index is computed, and
:func:`simulate` the only per-step loop.  Both work on state arrays of
shape (runs, arms): a batch of independent runs, or one run, as
:func:`.policies.indices` takes them.  :func:`simulate` stacks the runs
of several policies as row blocks of one such state, stored arm-major so
that reductions over the arms run along the long axis.  Every index is
maximised; imed's is its score negated.  Rewards and
tie-breaks come from the counter-based hash in :mod:`._rng`, and the
Bernoulli and exponential KL are inverted by one Newton iteration,
:func:`_newton_down`, stopped element by element; so each run's
trajectory is the same in any batch, next to any other policy's runs.
:func:`simulate` needs only each step's argmax and tie set, so
:func:`_settle` inverts a Bernoulli-KL cell only where one forward KL test
cannot place it, and leaves ±inf in its score buffer elsewhere.

The empirical-likelihood families (klucb*, imed) take one of two branches,
chosen by the input.  Given each (run, arm) cell's empirical distribution
(``simulate(..., empirical=True)``), they use the divergence ``kinf`` on
it, for any support.  Without them every arm must be supported on {0, 1},
so that the empirical distribution reduces to its mean and the divergence
to the Bernoulli KL; :func:`.simulator._policy_engine` decides which
policies run without them.  A cell whose distribution lies on {0, 1} takes
the Bernoulli formulas on either branch, so the two branches give the same
bits on such arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._rng import CH_REWARD, CH_TIE, mix64_array, unit_uniform_array
from .distributions import BanditInstance, Bernoulli, EmpiricalDistribution, positive_int
from .kinf import _bern_kl, kinf, klucb_index

if TYPE_CHECKING:
    from .policies import PolicySpec

# Uniforms hashed per channel in one pass of :func:`simulate` (256 KiB of
# float64): the block of steps is this many over the batch size, at most
# _BLOCK_STEPS, since hashing holds about two temporaries of its size.
_BLOCK_ELEMS = 1 << 15
_BLOCK_STEPS = 1 << 10


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
    """Switch threshold floor(tau/K)^exponent as a real number, which the
    branch test compares with each pull count.  At 8/9 it is the paper's
    delayed empirical switch.  At 1/5 an integer count n passes it exactly
    when n <= floor((tau/K)^(1/5)), the paper's integer threshold, since
    n <= floor(r)^(1/5) iff n^5 <= floor(r) iff n^5 <= r.
    """
    if tau < 1 or k < 1:
        raise ValueError("tau and k must be >= 1")
    return math.floor(tau / k) ** exponent


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


def _bern_edge(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`bern_klucb` where d = 0, p = 0 or p = 1: kl(0, mu) = -ln(1 - mu)."""
    return np.where(p > 0.0, p, -np.expm1(-d))


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

    out = _bern_edge(p, d)
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
    """What the kernel reads: the policy."""

    spec: PolicySpec


def _draw(arms: tuple, bern_p: np.ndarray | None, action: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The reward of each run's ``action`` at its uniform ``u``: from the
    Bernoulli parameters ``bern_p`` when every arm is Bernoulli, else by
    the arms' own quantiles."""
    if bern_p is not None:
        return np.where(u < bern_p[action], 1.0, 0.0)
    if not np.count_nonzero(action != action[0]):  # one arm for every run, as for a lone run
        return arms[action[0]].quantile(u)
    r = np.empty(action.shape)
    for a, arm in enumerate(arms):
        mask = action == a
        if mask.any():
            r[mask] = arm.quantile(u[mask])
    return r


def _tie_break(scores: np.ndarray, u) -> np.ndarray:
    """Per run, the arm of largest score; among m tied arms, the i-th in arm
    order for u in [i/m, (i+1)/m).  No run holds -inf alone (see
    :func:`_settle`), so a run with one best arm takes it, found by reductions
    (an argmax copies the arm-major buffer); the rank scan runs only on the rest."""
    k = scores.shape[1]
    tied = scores == scores.max(axis=1, keepdims=True)
    action = k - (tied * np.arange(k, 0, -1, dtype=np.int32)).max(axis=1)
    if np.count_nonzero(tied) > len(scores):
        multi = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
        rank = tied[multi].cumsum(axis=1, dtype=np.int32)  # last column: number tied
        pick = (np.broadcast_to(u, action.shape)[multi] * rank[:, -1]).astype(np.int64)
        action[multi] = (rank > pick[:, None]).argmax(axis=1)
    return action


def _binary_means(laws) -> np.ndarray:
    """Each law's mean where it lies on {0, 1}, read in O(1) off its sorted
    atoms (at most two, the first and last in {0, 1}), else NaN.  There the
    divergence is the Bernoulli KL on the law's mean, which may differ from
    the cell's exact s/n when :func:`simulate` rounds the pushed rewards."""
    binary = (len(nu) <= 2 and nu.values[0] in (0.0, 1.0) and nu.values[-1] in (0.0, 1.0) for nu in laws)
    return np.array([nu.mean if b else math.nan for nu, b in zip(laws, binary)])


def _kl_upper(out: np.ndarray, cells: np.ndarray, p: np.ndarray, d: np.ndarray, dists, pending: list | None) -> None:
    """sup { mu : divergence <= d } at the flat ``cells`` of ``out``, with
    ``p`` and ``d`` the means and budgets of those cells, by the Bernoulli
    KL on the mean: inverted at once when no list is given, else left
    unfilled and queued on ``pending`` as ``(cells, p, d)`` for
    :func:`_settle`.  Given each cell's empirical distribution
    ``dists[c]``, only the cells whose law lies on {0, 1} take that route,
    on their law's mean; every other cell takes ``klucb_index`` on its law,
    put at once."""
    if dists is not None:
        laws = [dists[c] for c in cells.tolist()]
        m = _binary_means(laws)
        rest = np.isnan(m)
        out.put(cells[rest], [klucb_index(nu, x) for nu, x, r in zip(laws, d.tolist(), rest.tolist()) if r])
        cells, p, d = cells[~rest], m[~rest], d[~rest]
    if pending is None:
        out.put(cells, bern_klucb(p, d))
    elif cells.size:
        pending.append((cells, p, d))


def _settle(scores: np.ndarray, cells: np.ndarray, p: np.ndarray, d: np.ndarray) -> None:
    """Fill the queued Bernoulli-KL ``cells`` of ``scores`` (flat in
    ``scores.T``), of means ``p`` and budgets ``d``, so that each run's
    argmax and tie set are those of full evaluation: each cell gets its
    exact index, -inf below its run's maximum, or +inf as its argmax alone.

    Cells off the general case take :func:`_bern_edge`.  For a general
    cell, let r > p be the root of kl(p, r) = d, v its :func:`bern_klucb`
    value, |v - r| <= 1e-10, and B' = max(min(B, 1 - 1e-9), p), with B its
    run's best score over the cells not general.  On [p, 1) kl(p, .) has
    the increasing slope g(x) = (x - p)/(x (1 - x)) <= 1/(x (1 - x)).  One
    forward evaluation gives slack = d - kl(p, B'), against the margin
    m = 1e-9 (1 + 1/(B' (1 - B'))), whose 1e-9 covers kl's rounding:
    - slack < -m puts v below B' <= B: slack = d > 0 at B' = p, so here
      p < B' <= B, and v >= B' would give r >= B' - 1e-10 and
      -slack <= 1e-10 g(B') <= m - 1e-9.
    - slack > m with B' < 1 - 1e-9, where B' = max(B, p), puts v above
      B' >= B: v <= B' would give r <= B' + 1e-10 and slack <=
      1e-10 g(B' + 1e-10) <= 1e-10 / (0.9 B' (1 - B')) < m - 1e-9.
    A cell below keeps -inf.  A cell above that is its run's only general
    cell not below gets +inf (at B = -inf no cell is below, so only at
    K = 1).  The rest go to one :func:`bern_klucb` call.
    """
    runs = len(scores)
    flat = scores.T
    gen = (d > 0.0) & (p > 0.0) & (p < 1.0)
    flat.put(cells, np.where(gen, -np.inf, _bern_edge(p, d)))
    cells, p, d = cells[gen], p[gen], d[gen]
    run = cells % runs
    b = np.maximum(np.minimum(scores.max(axis=1)[run], 1.0 - 1e-9), p)
    q, e = 1.0 - p, 1.0 - b
    slack = d - (p * np.log(p / b) + q * np.log(q / e))
    m = 1e-9 + 1e-9 / (b * e)
    below = slack < -m
    above = (slack > m) & (b < 1.0 - 1e-9)
    lone = above & (np.bincount(run[~below], minlength=runs)[run] == 1)
    flat.put(cells[lone], np.inf)
    solve = ~(below | lone)
    if np.count_nonzero(solve):
        flat.put(cells[solve], bern_klucb(p[solve], d[solve]))


def _indices(ctx: _Ctx, n: np.ndarray, s: np.ndarray, t: int, dists=None, pending=None) -> np.ndarray:
    """Index of every (run, arm) at time ``t`` from pull counts ``n`` (all
    >= 1) and reward sums ``s``, both of shape (runs, arms).  Every family
    maximises: imed's index is its score negated, -(N kinf + ln N).

    ``dists``, the empirical distribution of every cell in the flat
    arm-major order ``arm * runs + run``, selects the ``kinf`` branch of
    the empirical-likelihood families, which its cells on {0, 1} skip for
    the Bernoulli formulas on their law's mean; without it they take the
    Bernoulli branch, exact for arms supported on {0, 1}.  Bernoulli klucb
    cells are left unfilled and queued on the list ``pending`` when one is
    given, else filled at once (see :func:`_kl_upper`).
    """
    spec = ctx.spec
    fam = spec.family
    k = n.shape[1]
    mean = s / n

    if fam == "ucb":
        c = math.log(t) / 2.0
        return mean + np.sqrt(c / n)
    ref = t if spec.horizon is None else spec.horizon  # only the families that read a horizon take one
    if fam in ("moss", "moss-anytime"):
        return _moss(mean, n, ref / k, spec.exploration)
    if fam == "klucb-gauss":
        return mean + np.sqrt(2.0 * spec.sigma**2 * _explo(spec.exploration, ref / (k * n)) / n)
    if fam == "klucb-exp":
        d = _explo(spec.exploration, ref / (k * n)) / n
        return exp_klucb(np.maximum(mean, 1e-12), d)
    if fam == "imed":
        pmax = np.minimum(np.maximum(mean.max(axis=1), 1e-9), 1.0 - 1e-9)[:, None]
        if dists is None:  # kinf._bern_kl's sum, where mean < pmax < 1
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = np.where(mean > 0.0, mean * np.log(mean / pmax), 0.0)
                kl = np.where(mean >= pmax, 0.0, t1 + (1.0 - mean) * np.log((1.0 - mean) / (1.0 - pmax)))
        else:
            kl = np.zeros_like(mean)
            mu = np.broadcast_to(pmax, mean.shape).T
            below = np.flatnonzero(mean.T < mu)
            m, mu_b = _binary_means([dists[c] for c in below.tolist()]), mu.flat[below]
            binary = m < mu_b  # false at NaN (not on {0, 1}) and where a binned law's mean is not below
            kl.T.flat[below[binary]] = _bern_kl(m[binary], mu_b[binary])
            for c in below[~binary].tolist():
                kl.T.flat[c] = kinf(dists[c], float(mu.flat[c])).value
        return -(n * kl + np.log(n))
    if fam in ("klucb", "klucb-anytime"):  # every cell on the KL branch
        out, d = np.empty_like(mean), _explo(spec.exploration, ref / (k * n)) / n
        cells = np.arange(n.size)
    elif fam in ("klucb-switch", "klucb-switch-anytime"):
        e = _explo(spec.exploration, ref / k / n)  # the budget both branches read
        out, d = mean + np.sqrt(e / (2.0 * n)), e / n
        cells = np.flatnonzero((n <= switch_value(ref, k, spec.switch_exponent)).T)
    else:
        raise AssertionError(f"unhandled family {fam!r}")
    if cells.size:  # flat indices of out.T: arm-major, as dists are listed
        _kl_upper(out.T, cells, mean.T.take(cells), d.T.take(cells), dists, pending)
    return out


def simulate(
    bandit: BanditInstance,
    specs,
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
    for the ``kinf`` branch; with ``bins`` as well, each reward enters it
    rounded to the grid {0, 1/bins, ..., 1}, while the sums stay exact.

    ``specs`` is one policy or a sequence of them; the seeds are then cut
    into one block of equal length per policy, in order, and each block is
    run by its policy.  Every block writes its rows of one score buffer,
    which one tie-break maximises; the Bernoulli-KL cells of all blocks go
    through one :func:`_settle` pass per step, and the draw, state update
    and regret run once.

    The uniforms of both channels are hashed for a block of steps at a
    time, about ``_BLOCK_ELEMS`` per channel; they do not depend on the
    block length, so neither does any output bit.
    """
    specs = tuple(specs) if isinstance(specs, (tuple, list)) else (specs,)
    if bins is not None:
        bins = positive_int(bins, "bins")  # 2.5 would put the reward 1 at 0.8, off the grid
    k = bandit.k
    runs = len(seeds)
    width, extra = divmod(runs, len(specs))
    if extra:
        raise ValueError(f"{runs} seeds do not split into {len(specs)} equal blocks")
    keys = mix64_array(seeds)
    arms, gaps = bandit.arms, bandit.gaps
    bern_p = np.array([a.p for a in arms]) if all(isinstance(a, Bernoulli) for a in arms) else None

    # Arm-major state: (runs, K) views of (K, runs) arrays, whose flat cell
    # (run, arm) is arm * runs + run, also the index of its distribution;
    # each block lists its distributions in its own arm-major order.  The
    # score buffer is allocated once, and ``parts`` stays bound until the
    # next step's are built: freeing every (runs, K) temporary at once lets
    # malloc trim the heap, which large batches then page-fault back in at
    # every step.
    n_cells, s_cells = np.zeros(k * runs), np.zeros(k * runs)
    n, s = n_cells.reshape(k, runs).T, s_cells.reshape(k, runs).T
    scores = np.empty((runs, k), order="F")
    dists = [EmpiricalDistribution() for _ in range(runs * k)] if empirical else None
    blocks = []  # per policy: its context, its rows of n, s and dists, and its cells' places in scores.T
    for i, spec in enumerate(specs):
        rows = slice(i * width, (i + 1) * width)
        cells = None if dists is None else [dists[a * runs + r] for a in range(k) for r in range(runs)[rows]]
        where = (np.arange(k)[:, None] * runs + np.arange(runs)[rows]).ravel()
        blocks.append((_Ctx(spec), n[rows], s[rows], cells, where))
    run_ids = np.arange(runs)
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
                parts, pending = [], []
                for ctx, nb, sb, cells, where in blocks:
                    queued = []
                    parts.append(_indices(ctx, nb, sb, step - 1, cells, queued))
                    pending += [(where[c], p, d) for c, p, d in queued]
                np.concatenate(parts, out=scores)
                if pending:
                    _settle(scores, *(np.concatenate(x) for x in zip(*pending)))
                action = _tie_break(scores, u_tie)
            r = _draw(arms, bern_p, action, u)
            cell = action * runs + run_ids
            s_cells[cell] += r
            n_cells[cell] += 1.0
            if dists is not None:
                # half to even, as Python's round; the product and the
                # quotient each round correctly, so every atom has the bits
                # of round(x * bins) / bins
                pushed = r if bins is None else np.round(r * bins) / bins
                for c, x in zip(cell.tolist(), pushed.tolist()):
                    dists[c]._push(x)
            regret += gaps[action]
            if actions is not None:
                actions[:, step - 1] = action
            if gpos[step] >= 0:
                out[:, gpos[step]] = regret

    if record_actions:
        return out, actions
    return out
