"""Statistical and analytic checkers for the library's finite-time bounds.

Each checker turns one inequality into a report: a grid of checked points
with the empirical value, the theoretical bound, and a violation flag.
Monte-Carlo frequencies get a 3-sigma binomial allowance so the checks are
deterministic in expectation; the inequalities themselves are proven facts,
so any violation beyond that allowance indicates an implementation bug.

``run_suite`` groups the checkers into the named suites driven by the
command line (and by the acceptance tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import CH_REWARD, derive_key, mix64_array, unit_uniform_array
from .distributions import BanditInstance, Bernoulli, EmpiricalDistribution
from .kinf import bernoulli_kl, kinf, kinf_weighted, klucb_index
from .policies import PolicySpec, indices
from .simulator import Scenario, _sorted_unique, gap_profile, monte_carlo
from . import _vector

__all__ = [
    "CheckPoint",
    "BoundCheckReport",
    "theoretical_bounds",
    "BOUND_IDS",
    "lambert_w",
    "concentration_gamma",
    "refined_pull_rate",
    "kinf_grid_oracle_check",
    "bernoulli_identity_check",
    "regularity_check",
    "kinf_deviation_check",
    "kinf_integrated_deviation_check",
    "kinf_concentration_check",
    "gamma_floor_check",
    "hoeffding_max_check",
    "hoeffding_integrated_check",
    "index_ordering_check",
    "lambert_residual_check",
    "distribution_free_check",
    "distribution_dependent_check",
    "minimax_profile_check",
    "SUITES",
    "run_suite",
]


@dataclass
class CheckPoint:
    label: str
    empirical: float
    bound: float
    stderr: float = 0.0
    violation: bool = False


@dataclass
class BoundCheckReport:
    """One inequality checked over a grid of points."""

    bound_name: str
    points: list
    runs: int
    notes: str = ""
    values: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(p.violation for p in self.points)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _point(label: str, empirical: float, bound: float, stderr: float = 0.0) -> CheckPoint:
    return CheckPoint(label, empirical, bound, stderr, empirical > bound + 3.0 * stderr)


def _freq_point(label: str, hits: np.ndarray, bound: float) -> CheckPoint:
    """The frequency of ``hits`` over its runs, with the binomial stderr
    sqrt(f (1 - f) / runs)."""
    freq = float(np.mean(hits))
    return _point(label, freq, bound, math.sqrt(freq * (1.0 - freq) / hits.size))


def _mean_point(label: str, vals: np.ndarray, bound: float) -> CheckPoint:
    """The sample mean of ``vals`` over its runs, with stderr std / sqrt(runs)."""
    return _point(label, float(vals.mean()), bound, float(vals.std(ddof=1) / math.sqrt(vals.size)))


def _band_point(label: str, empirical: float, lo: float, hi: float, stderr: float = 0.0) -> CheckPoint:
    ok = (lo - 3.0 * stderr) <= empirical <= (hi + 3.0 * stderr)
    return CheckPoint(f"{label} in [{lo:.6g}, {hi:.6g}]", empirical, hi, stderr, not ok)


# ---------------------------------------------------------------------------
# closed-form constants and special functions


# Constant C of each distribution-free bound (K - 1) + C sqrt(K T).
_BOUND_CONSTANTS = {
    "switch-known-horizon": 23.0,
    "switch-anytime": 44.0,
    "moss": 17.0,
    "moss-anytime": 30.0,
    "moss-anytime-augmented": 33.0,
}
BOUND_IDS = (*_BOUND_CONSTANTS, "minimax-lower")


def theoretical_bounds(k: int, horizon: int, bound_id: str) -> float:
    """Closed-form regret bounds and the minimax lower bound, for overlays
    and acceptance checks."""
    if k < 1 or horizon < 1:
        raise ValueError("k and horizon must be >= 1")
    root = math.sqrt(k * horizon)
    if bound_id in _BOUND_CONSTANTS:
        return (k - 1) + _BOUND_CONSTANTS[bound_id] * root
    if bound_id == "minimax-lower":
        return min(root, float(horizon)) / 20.0
    raise ValueError(f"unknown bound id {bound_id!r}; known: {BOUND_IDS}")


def lambert_w(x: float) -> float:
    """Principal Lambert W on x > 0: the solution w > 0 of w e^w = x.

    Halley iteration seeded with ln x - ln ln x for x > e and with x
    itself below; iterates to 1e-12 relative steps.
    """
    if x <= 0.0:
        raise ValueError("lambert_w requires a positive argument")
    w = math.log(x) - math.log(math.log(x)) if x > math.e else x
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        dw = f / denom
        w -= dw
        if w <= 0.0:
            w = 1e-300
        if abs(dw) <= 1e-12 * max(abs(w), 1e-12):
            break
    return w


def concentration_gamma(mu: float) -> float:
    """Variance proxy gamma = (16 e^-2 + ln^2(1/(1-mu))) / sqrt(1-mu)."""
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return (16.0 * math.exp(-2.0) + math.log(1.0 / (1.0 - mu)) ** 2) / math.sqrt(1.0 - mu)


def refined_pull_rate(k: int, horizon: int, mu_star: float, divergence: float) -> float:
    """Leading term of the refined sub-optimal-pull bound,
    W(ln(1/(1 - mu_star)) T / K) / divergence, for qualitative overlays.

    Sharper than the plain ln(T)/divergence rate by about ln ln T / div;
    its O(1) remainder terms are enormous at desk scale, so this is an
    overlay, not an asserted bound.
    """
    if not 0.0 < mu_star < 1.0:
        raise ValueError("mu_star must lie in (0, 1)")
    if divergence <= 0.0:
        raise ValueError("divergence must be positive")
    return lambert_w(math.log(1.0 / (1.0 - mu_star)) * horizon / k) / divergence


# ---------------------------------------------------------------------------
# solver oracles


def _random_empirical(rng: np.random.Generator, max_atoms: int = 20) -> EmpiricalDistribution:
    n_atoms = int(rng.integers(1, max_atoms + 1))
    vals = _sorted_unique(rng.random(n_atoms))
    counts = rng.integers(1, 11, size=vals.size)
    return EmpiricalDistribution(vals, counts)


# Bytes of the (rows x atoms) float64 block the grid oracle evaluates at a
# time: small enough to stay in a core's cache.
_ORACLE_BLOCK_BYTES = 1 << 20

# A block is bounded by the largest bound of its 16 sub-blocks, and skipped
# when that is 1e-9 below the running maximum; see ``_grid_max`` for why
# rounding cannot bridge the margin.
_ORACLE_SUB_BLOCKS = 16
_ORACLE_MARGIN = 1e-9


def _interval_bounds(z, w, first, last):
    """Upper bounds of F(lam) = sum_j w_j log1p(-lam z_j) on the lam
    intervals [first, last] (arrays of any one shape): term j decreases in
    lam for z_j > 0 and increases for z_j < 0, so on an interval it is
    largest at the first lam or at the last one."""
    ends = np.where(z > 0.0, first[..., None], last[..., None])
    return np.log1p(ends * -z) @ w


def _grid_points(idx, n: int) -> np.ndarray:
    """The points ``idx`` (integers) of ``np.linspace(0, 1, n)``, with its
    bits, without the grid: i * (1 / (n - 1)), and 1 at the last one."""
    lam = idx * (1.0 / max(n - 1, 1))  # n = 1: the one point 0
    if n > 1:
        lam[idx == n - 1] = 1.0
    return lam


def _block_bounds(z, w, n: int, rows: int):
    """Upper bound of F on each block of ``rows`` consecutive points of the
    ``n``-point grid: the largest ``_interval_bounds`` of the block's 16
    sub-blocks."""
    starts = np.arange(0, n, rows)
    sub = -(-rows // _ORACLE_SUB_BLOCKS)
    first = np.minimum(starts[:, None] + np.arange(0, rows, sub), n - 1)
    last = np.minimum(first + sub, np.minimum(starts + rows, n)[:, None]) - 1
    return _interval_bounds(z, w, _grid_points(first, n), _grid_points(last, n)).max(axis=1)


def _grid_max(dist, mu: float, n: int) -> tuple:
    """(max of F over the ``n``-point grid ``np.linspace(0, 1, n)``, blocks
    evaluated, blocks) for the K_inf dual objective F(lam) = sum_j w_j
    log1p(-lam z_j), z_j = (x_j - mu) / (1 - mu).

    The grid is cut into 1 MiB blocks, each bounded by ``_block_bounds``.
    Blocks are evaluated in order of decreasing bound, and the scan stops at
    the first bound below best - 1e-9.  An evaluated block runs the same
    operations on the same rows as the exhaustive scan, so its maximum has
    the same bits.  The result is the exhaustive maximum exactly, because a
    skipped block holds no computed value above best; for the oracle's laws
    (at most 20 atoms, mu <= 0.999):

    - Let T_j(lam) be the exact log1p of the rounded product fl(lam * -z_j).
      Rounding is monotone, so T_j is monotone in lam like the exact term,
      and the bound, which rounds the same product at a sub-block end,
      bounds T_j over the sub-block.  Write S = sum_j w_j |T_j|.
    - best >= 0 at the stop.  At lam = 0 every term is 0, and the first
      sub-block of block 0 takes its z_j > 0 terms at lam = 0 and its
      z_j < 0 terms at lam > 0, so block 0's bound is >= 0.  If best were
      < 0, block 0 would precede the stopping block and give best >= F(0)
      = 0.
    - -lam z_j <= mu / (1 - mu) <= 999, so every T_j <= ln 1000 and, as the
      weights sum to 1, the positive part of F is at most ln 1000.  So
      S <= 2 ln 1000 at a point with F >= 0 and at any bound above it.
    - log1p is within 4 ulp, and a weighted sum of n terms rounds by at
      most (n + 1) 2^-53 S, so a computed F or bound is within
      (n + 9) 2^-53 S < 5e-14 of its exact value.  A skipped point with
      computed F > best >= 0 would have a computed bound >= F - 1e-13 >
      best - 1e-9, so its block would not have been skipped.
    """
    z = (dist.values - mu) / (1.0 - mu)
    w = dist.weights
    rows = max(1, _ORACLE_BLOCK_BYTES // (8 * z.size))
    buf = np.empty((rows, z.size))
    best = -math.inf
    evaluated = 0
    with np.errstate(divide="ignore"):
        bounds = _block_bounds(z, w, n, rows)
        for b in np.argsort(-bounds, kind="stable"):
            if bounds[b] < best - _ORACLE_MARGIN:
                break
            lam = _grid_points(np.arange(b * rows, min((b + 1) * rows, n)), n)
            view = buf[: lam.size]
            np.multiply.outer(lam, -z, out=view)
            np.log1p(view, out=view)
            best = max(best, float((view @ w).max()))
            evaluated += 1
    return best, evaluated, bounds.size


def _oracle_jobs(n_dists: int, seed: int):
    """The grid oracle's (label, law, mu) jobs: random laws of at most 20
    atoms, mu drawn from [mean - 0.05, 0.999]."""
    rng = np.random.default_rng(seed)
    for i in range(n_dists):
        dist = _random_empirical(rng)
        mu = float(rng.uniform(max(dist.mean - 0.05, 1e-3), 0.999))
        yield f"dist {i}, mu={mu:.4f}", dist, mu


def kinf_grid_oracle_check(
    n_dists: int = 500,
    grid_points: int = 1_000_000,
    seed: int = 20_240_101,
    tol: float = 1e-6,
) -> BoundCheckReport:
    """Newton solver versus brute-force maximisation of the dual objective
    on a uniform lambda grid, in the calling process; the worst gap is the
    largest (|newton - grid|, label), so equal gaps go to the larger
    label."""
    worst = (0.0, "")
    evaluated = total = 0
    for label, dist, mu in _oracle_jobs(n_dists, seed):
        best, done, blocks = _grid_max(dist, mu, grid_points)
        worst = max(worst, (abs(kinf(dist, mu).value - best), label))
        evaluated += done
        total += blocks
    worst_gap, worst_label = worst
    points = [_point(f"max |newton - grid| ({worst_label})", worst_gap, tol)]
    return BoundCheckReport(
        bound_name="kinf-grid-oracle",
        points=points,
        runs=n_dists,
        notes=f"{grid_points}-point uniform lambda grid; {evaluated} of {total} blocks evaluated",
        values={"worst_gap": worst_gap, "blocks_evaluated": evaluated, "blocks_total": total},
    )


def bernoulli_identity_check(ps=None, mus_per_p: int = 50, tol: float = 1e-8) -> BoundCheckReport:
    """kinf on a two-atom {0,1} distribution equals the Bernoulli KL."""
    ps = ps if ps is not None else [round(0.1 * i, 1) for i in range(1, 10)]
    points = []
    worst = 0.0
    for p in ps:
        num = round(p * 10)
        dist = EmpiricalDistribution([0.0, 1.0], [10 - num, num])
        for mu in np.linspace(p + 1e-3, 0.99, mus_per_p):
            gap = abs(kinf(dist, float(mu)).value - bernoulli_kl(p, float(mu)))
            worst = max(worst, gap)
        points.append(_point(f"p={p}", worst, tol))
    return BoundCheckReport("kinf-bernoulli-identity", points, len(ps) * mus_per_p)


def regularity_check(samples: int = 10_000, seed: int = 20_240_102, tol: float = 1e-7) -> BoundCheckReport:
    """Two-sided local regularity of kinf in its mean argument:
    kinf(nu, mu - eps) + 2 eps^2 <= kinf(nu, mu) <= kinf(nu, mu - eps) + eps/(1 - mu)."""
    rng = np.random.default_rng(seed)
    worst_lower = -math.inf
    worst_upper = -math.inf
    for _ in range(samples):
        dist = _random_empirical(rng)
        m = dist.mean
        if m >= 0.985:
            continue
        mu = float(rng.uniform(m + 1e-4, 0.99))
        eps = float(rng.uniform(0.0, mu - m))
        k_mu = kinf(dist, mu).value
        k_lo = kinf(dist, mu - eps).value if mu - eps > 0 else 0.0
        worst_lower = max(worst_lower, k_lo + 2.0 * eps * eps - k_mu)
        worst_upper = max(worst_upper, k_mu - (k_lo + eps / (1.0 - mu)))
    points = [
        _point("lower: kinf(mu-eps) + 2 eps^2 <= kinf(mu)", worst_lower, tol),
        _point("upper: kinf(mu) <= kinf(mu-eps) + eps/(1-mu)", worst_upper, tol),
    ]
    return BoundCheckReport("kinf-regularity", points, samples)


# ---------------------------------------------------------------------------
# deviation / concentration checkers


def _binary_empiricals(n: int) -> list:
    """The empirical distribution of c ones out of n >= 1 observations in
    {0, 1}, for every count c: one atom when c is 0 or n, else two."""
    inner = [EmpiricalDistribution([0.0, 1.0], [n - c, c]) for c in range(1, n)]
    return [EmpiricalDistribution([0.0], [n]), *inner, EmpiricalDistribution([1.0], [n])]


def _resample(arm, n: int, runs: int, rng: np.random.Generator) -> tuple:
    """The distinct empirical laws of n i.i.d. draws from ``arm``,
    resampled ``runs`` times, and for each run the index of its law: on a
    binary arm, the law of every count of ones, drawn binomially; on any
    other, one law per run, from its own ``rng.random(n)``."""
    if arm.support_binary:
        return _binary_empiricals(n), rng.binomial(n, arm.true_mean(), size=runs)
    laws = [EmpiricalDistribution.from_observations(np.asarray(arm.quantile(rng.random(n)), dtype=float)) for _ in range(runs)]
    return laws, np.arange(runs)


def kinf_deviation_check(arm, n: int, u_grid, runs: int, seed: int) -> BoundCheckReport:
    """P[kinf(empirical_n, E(nu)) >= u] <= e (2n+1) e^(-n u)."""
    mu = arm.true_mean()
    if not 0.0 < mu < 1.0:
        raise ValueError("the arm mean must lie strictly inside (0, 1)")
    laws, law_of_run = _resample(arm, n, runs, np.random.default_rng(seed))
    vals = np.array([kinf(nu, mu).value for nu in laws])[law_of_run]
    points = []
    for u in u_grid:
        points.append(_freq_point(f"n={n},u={u:g}", vals >= u, math.e * (2 * n + 1) * math.exp(-n * u)))
    params = ",".join(f"{key}={value}" for key, value in arm.to_config().items() if key != "kind")
    return BoundCheckReport(f"kinf-deviation[{arm.kind},{params},n={n}]", points, runs)


def kinf_integrated_deviation_check(arm, n: int, eps_grid, runs: int, seed: int) -> BoundCheckReport:
    """E[(E(nu) - U_eps,n)+] <= (2n+1) e^(-n eps) sqrt(pi/n), where U_eps,n
    is the index inversion at budget eps on the resampled empirical."""
    mu = arm.true_mean()
    if not 0.0 < mu < 1.0:
        raise ValueError("the arm mean must lie strictly inside (0, 1)")
    laws, law_of_run = _resample(arm, n, runs, np.random.default_rng(seed))
    points = []
    for eps in eps_grid:
        index = np.array([klucb_index(nu, float(eps)) for nu in laws])[law_of_run]
        bound = (2 * n + 1) * math.exp(-n * eps) * math.sqrt(math.pi / n)
        points.append(_mean_point(f"n={n},eps={eps:g}", np.maximum(mu - index, 0.0), bound))
    return BoundCheckReport(f"kinf-integrated-deviation[{arm.kind},n={n}]", points, runs)


# Thresholds x of the concentration check, as fractions of kinf(arm, mu).
_CONCENTRATION_X_FRACS = np.linspace(0.0, 0.9, 10)


def kinf_concentration_check(arm, mu: float, n_grid, runs: int, seed: int) -> BoundCheckReport:
    """Two-regime lower-tail bound on kinf(empirical_n, mu) below the
    population value, with the variance proxy gamma(mu)."""
    support = arm.support
    if support is None:
        raise ValueError("concentration checker needs a finite-support arm")
    m = arm.true_mean()
    if not m < mu < 1.0:
        raise ValueError("mu must exceed the arm mean and stay below 1")
    k_true = kinf_weighted(support[0], support[1], mu).value
    gamma = concentration_gamma(mu)
    rng = np.random.default_rng(seed)
    points = []
    for n in n_grid:
        laws, law_of_run = _resample(arm, int(n), runs, rng)
        vals = np.array([kinf(nu, mu).value for nu in laws])[law_of_run]
        for frac in _CONCENTRATION_X_FRACS:
            x = frac * k_true
            if x <= k_true - gamma / 2.0:
                bound = math.exp(-n * gamma / 8.0)
            else:
                bound = math.exp(-n * (k_true - x) ** 2 / (2.0 * gamma))
            points.append(_freq_point(f"n={n},x={x:.4f}", vals <= x, bound))
    return BoundCheckReport(
        f"kinf-concentration[{arm.kind},mu={mu}]",
        points,
        runs,
        notes=f"k_true={k_true:.6f}, gamma={gamma:.6f}",
        values={"k_true": k_true, "gamma": gamma},
    )


def gamma_floor_check(mu_grid=None) -> BoundCheckReport:
    """gamma(mu) >= 2 for all mu, hence exp(-n gamma/8) <= exp(-n/4)."""
    mu_grid = mu_grid if mu_grid is not None else np.linspace(0.01, 0.99, 99)
    points = []
    for mu in mu_grid:
        g = concentration_gamma(float(mu))
        points.append(_point(f"mu={mu:.2f}: require gamma >= 2", 2.0, g))
    return BoundCheckReport("concentration-gamma-floor", points, 0, notes="analytic, no sampling")


# The maximal Hoeffding checks take the maximum over n in [N, 50 N].
_HOEFFDING_CAP_FACTOR = 50


def _max_deviation_stream(arm, n_start: int, cap: int, runs: int, rng, sign: float) -> np.ndarray:
    """Per run, max over n in [n_start, cap] of sign*(mean_n - mu)."""
    mu = arm.true_mean()
    out = np.empty(runs)
    done = 0
    chunk = max(1, min(runs, 4_000_000 // cap))
    while done < runs:
        r = min(chunk, runs - done)
        draws = np.asarray(arm.quantile(rng.random((r, cap))), dtype=float)
        cum = np.cumsum(draws, axis=1) / np.arange(1, cap + 1)
        dev = sign * (cum[:, n_start - 1 :] - mu)
        out[done : done + r] = dev.max(axis=1)
        done += r
    return out


def hoeffding_max_check(arm, n_start: int, u_grid, runs: int, seed: int) -> BoundCheckReport:
    """Maximal Hoeffding: P[max_{n>=N} (mean_n - mu) >= u] <= e^(-2 N u^2).

    The maximum is truncated to n in [N, 50N]; the truncated event is a
    subset of the untruncated one, so the check stays conservative-valid.
    """
    rng = np.random.default_rng(seed)
    mx = _max_deviation_stream(arm, n_start, _HOEFFDING_CAP_FACTOR * n_start, runs, rng, sign=1.0)
    points = []
    for u in u_grid:
        points.append(_freq_point(f"N={n_start},u={u:g}", mx >= u, math.exp(-2.0 * n_start * u * u)))
    return BoundCheckReport(
        f"hoeffding-max[{arm.kind},N={n_start}]",
        points,
        runs,
        notes=f"maximum truncated to n in [N, {_HOEFFDING_CAP_FACTOR}N]",
    )


def hoeffding_integrated_check(arm, n_start: int, eps_grid, runs: int, seed: int) -> BoundCheckReport:
    """Integrated form: E[(max_{n>=N} (mu - mean_n - eps))+]
    <= sqrt(pi/8) sqrt(1/N) e^(-2 N eps^2)."""
    rng = np.random.default_rng(seed)
    mx = _max_deviation_stream(arm, n_start, _HOEFFDING_CAP_FACTOR * n_start, runs, rng, sign=-1.0)
    points = []
    for eps in eps_grid:
        bound = math.sqrt(math.pi / 8.0) * math.sqrt(1.0 / n_start) * math.exp(-2.0 * n_start * eps * eps)
        points.append(_mean_point(f"N={n_start},eps={eps:g}", np.maximum(mx - eps, 0.0), bound))
    return BoundCheckReport(f"hoeffding-integrated[{arm.kind},N={n_start}]", points, runs)


# ---------------------------------------------------------------------------
# index ordering


def _checkpoint_states(bandit: BanditInstance, seeds, actions: np.ndarray, steps):
    """(step, n, s) after each of the increasing ``steps``: the pull counts
    and reward sums, shape (runs, K), of the runs with these ``seeds`` that
    took the logged ``actions`` (runs, T).

    One array pass rebuilds them: each run's rewards are hashed as the
    simulation hashes them, drawn by the arms' own quantiles, and summed by
    cumulative sums over the action log.  Every arm must be supported on
    {0, 1}, so the sums are exact and a cell's law is its count of ones."""
    if not all(arm.support_binary for arm in bandit.arms):
        raise ValueError("checkpoint states are rebuilt for arms supported on {0, 1} only")
    keys = mix64_array(seeds)
    u = unit_uniform_array(keys, np.arange(1, actions.shape[1] + 1), CH_REWARD).T
    steps = np.asarray(steps)
    n = np.empty((steps.size, len(seeds), bandit.k))
    s = np.empty_like(n)
    for a, arm in enumerate(bandit.arms):
        pulled = actions == a
        n[:, :, a] = np.cumsum(pulled, axis=1)[:, steps - 1].T
        s[:, :, a] = np.cumsum(np.where(pulled, arm.quantile(u), 0.0), axis=1)[:, steps - 1].T
    yield from zip(steps.tolist(), n, s)


def index_ordering_check(
    runs: int = 100,
    checkpoints_per_run: int = 10,
    horizon: int = 600,
    seed: int = 20_240_103,
    tol: float = 1e-9,
) -> BoundCheckReport:
    """Pinsker sandwich of indices on shared states: the empirical-
    likelihood index never exceeds the switch index, which never exceeds
    the minimax index, for the known-horizon trio and the anytime trio.

    States are produced by anytime-switch runs, simulated vectorised and
    sampled at log-spaced steps; their checkpoint states are rebuilt from
    the action log by ``_checkpoint_states``, and each index is evaluated
    on all runs at once.  Every checkpoint law lies on {0, 1}, so the
    indices take the kernel's Bernoulli branch, exact there, with no solve.
    """
    bandit = BanditInstance((Bernoulli(0.8), Bernoulli(0.6), Bernoulli(0.4)))
    k = bandit.k
    driver = PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)
    known = tuple(PolicySpec(family, horizon=horizon) for family in ("klucb", "klucb-switch", "moss"))
    anytime = tuple(PolicySpec(family) for family in ("klucb-anytime", "klucb-switch-anytime", "moss-anytime"))

    seeds = derive_key(seed, 0, np.arange(runs))
    _, actions = _vector.simulate(bandit, driver, horizon, seeds, (horizon,), record_actions=True)
    sample_steps = _sorted_unique(np.geomspace(k + 1, horizon, checkpoints_per_run).astype(int))

    def worst_gap(trio, n, s, step) -> float:
        u_kl, u_sw, u_m = (indices(spec, n, s, step) for spec in trio)
        return max(float(np.max(u_kl - u_sw)), float(np.max(u_sw - u_m)))

    worst_known = -math.inf
    worst_anytime = -math.inf
    for step, n, s in _checkpoint_states(bandit, seeds, actions, sample_steps):
        worst_known = max(worst_known, worst_gap(known, n, s, step))
        worst_anytime = max(worst_anytime, worst_gap(anytime, n, s, step))
    checked = runs * sample_steps.size
    points = [
        _point("known-horizon: max(U_kl - U_switch, U_switch - U_moss)", worst_known, tol),
        _point("anytime: max(U_kl_a - U_switch_a, U_switch_a - U_moss_a)", worst_anytime, tol),
    ]
    return BoundCheckReport(
        "index-pinsker-ordering",
        points,
        runs,
        notes=f"{checked} sampled (state, step) checkpoints, all arms",
        values={"checkpoints": checked},
    )


# ---------------------------------------------------------------------------
# Lambert W


def lambert_residual_check(grid=None, rel_tol: float = 1e-10) -> BoundCheckReport:
    """Defining-equation residual on a log grid, plus the sandwich
    ln x - ln ln x <= W(x) <= ln x - ln ln x + ln(1 + 1/e) for x > e."""
    grid = grid if grid is not None else np.geomspace(1e-3, 1e9, 61)
    points = []
    for x in grid:
        x = float(x)
        w = lambert_w(x)
        resid = abs(w * math.exp(w) - x) / x
        points.append(_point(f"x={x:.3g}: residual", resid, rel_tol))
        if x > math.e:
            lo = math.log(x) - math.log(math.log(x))
            hi = lo + math.log(1.0 + math.exp(-1.0))
            points.append(_band_point(f"x={x:.3g}: sandwich", w, lo, hi))
    return BoundCheckReport("lambert-w", points, 0, notes="analytic, no sampling")


# ---------------------------------------------------------------------------
# regret-level checks (Monte Carlo)


def distribution_free_check(
    runs: int = 1000,
    horizon: int = 10_000,
    seed: int = 20_240_201,
    parallelism: int = 1,
) -> BoundCheckReport:
    """Worst-case-style scenario at gap sqrt(K/T): mean regret under the
    closed-form distribution-free constants, and the normalized regret of
    the known-horizon switch policy below 5."""
    k = 2
    bandit = gap_profile(k, horizon, 1.0)
    specs = (
        PolicySpec("klucb-switch", horizon=horizon, label="switch-known-T"),
        PolicySpec("moss", horizon=horizon, label="moss"),
        PolicySpec("klucb-switch-anytime", exploration="augmented_phi", label="switch-anytime"),
    )
    scenario = Scenario(bandit=bandit, horizon=horizon, policies=specs, runs=runs, base_seed=seed)
    curve = monte_carlo(scenario, parallelism=parallelism)
    root = math.sqrt(k * horizon)
    points = []
    values = {}
    for label, bound_id in (
        ("switch-known-T", "switch-known-horizon"),
        ("moss", "moss"),
        ("switch-anytime", "switch-anytime"),
    ):
        mean_rt = curve.final_mean(label)
        se = curve.final_stderr(label)
        values[label] = mean_rt
        points.append(_point(f"{label}: R_T vs {bound_id}", mean_rt, theoretical_bounds(k, horizon, bound_id), se))
    norm = curve.final_mean("switch-known-T") / root
    values["normalized-switch-known-T"] = norm
    points.append(_point("switch-known-T: R_T/sqrt(KT) < 5", norm, 5.0, curve.final_stderr("switch-known-T") / root))
    return BoundCheckReport("regret-distribution-free", points, runs, values=values)


def distribution_dependent_check(
    runs: int = 2000,
    horizon: int = 10_000,
    seed: int = 20_240_202,
    parallelism: int = 1,
) -> BoundCheckReport:
    """Two-armed Bernoulli (0.9, 0.8): logarithmic regret growth of the
    known-horizon switch and moss policies within a [0.5, 3] band of the
    information-theoretic rate gap/kl(0.8, 0.9) * ln T, and the regret
    ordering klucb <~ switch <~ moss at the horizon.

    Pure klucb is kept out of the band assertion: its measured regret at
    this horizon sits *below* half the asymptotic rate (the second-order
    -ln ln T effect), which is a feature of the policy, not a bug."""
    bandit = BanditInstance((Bernoulli(0.9), Bernoulli(0.8)))
    specs = (
        PolicySpec("klucb", horizon=horizon, label="klucb"),
        PolicySpec("klucb-switch", horizon=horizon, label="switch"),
        PolicySpec("moss", horizon=horizon, label="moss"),
    )
    scenario = Scenario(bandit=bandit, horizon=horizon, policies=specs, runs=runs, base_seed=seed)
    curve = monte_carlo(scenario, parallelism=parallelism)
    rate = (0.1 / bernoulli_kl(0.8, 0.9)) * math.log(horizon)
    points = []
    values = {"rate": rate, "klucb": curve.final_mean("klucb")}
    for label in ("switch", "moss"):
        mean_rt = curve.final_mean(label)
        se = curve.final_stderr(label)
        values[label] = mean_rt
        points.append(_band_point(f"{label}: R_T vs log-rate band", mean_rt, 0.5 * rate, 3.0 * rate, se))
    se_pair = curve.final_stderr("klucb") + curve.final_stderr("switch")
    points.append(
        _point("ordering: R(klucb) <= R(switch) + 3 se", curve.final_mean("klucb"), curve.final_mean("switch"), se_pair)
    )
    se_pair = curve.final_stderr("switch") + curve.final_stderr("moss")
    points.append(
        _point("ordering: R(switch) <= R(moss) + 3 se", curve.final_mean("switch"), curve.final_mean("moss"), se_pair)
    )
    return BoundCheckReport("regret-distribution-dependent", points, runs, values=values)


def minimax_profile_check(
    runs: int = 5000,
    horizon: int = 10_000,
    x: float = 1.0,
    ks=(2, 10, 50),
    seed: int = 20_240_203,
    parallelism: int = 1,
) -> BoundCheckReport:
    """Regret profile across K at fixed gap parameter x: the anytime switch
    policy's profile stays within a factor 2 and is significantly flatter
    than ucb's, while ucb's normalized regret grows with K.

    The instance has one Bernoulli(0.8) arm and K - 1 arms at gap
    x * sqrt(K/T), so every suboptimal pull costs the same gap and
    R_T / sqrt(KT) = x * (share of suboptimal pulls). A policy that learns
    nothing pulls suboptimal arms a share (K - 1)/K of the time, so its
    R_T / sqrt(KT) alone goes from x/2 at K = 2 to 0.98x at K = 50: a factor
    1.96 from the normalization, before any learning effect. The factor-2
    clause therefore divides R_T by the instance's no-information regret,
    x * sqrt(KT) * (K - 1)/K, which depends on the instance only. Ratios of
    the profile carry delta-method stderrs whose terms are added linearly,
    like the paired points above, since the runs at different K share seeds.
    `values` keeps the raw R_T / sqrt(KT) under `<policy>-K<k>` and its
    max/min under `switch-ratio`."""
    norm = {}
    err = {}
    for k in ks:
        bandit = gap_profile(k, horizon, x)
        specs = (
            PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0, label="switch"),
            PolicySpec("ucb", label="ucb"),
        )
        scenario = Scenario(bandit=bandit, horizon=horizon, policies=specs, runs=runs, base_seed=seed)
        curve = monte_carlo(scenario, parallelism=parallelism)
        root = math.sqrt(k * horizon)
        for label in ("switch", "ucb"):
            norm[(label, k)] = curve.final_mean(label) / root
            err[(label, k)] = curve.final_stderr(label) / root

    def spread(label: str, scale: dict) -> tuple:
        """max/min over K of the profile norm * scale, with its stderr."""
        vals = [norm[(label, k)] * scale[k] for k in ks]
        errs = [err[(label, k)] * scale[k] for k in ks]
        hi, lo = int(np.argmax(vals)), int(np.argmin(vals))
        ratio = vals[hi] / vals[lo]
        return ratio, ratio * (errs[hi] / vals[hi] + errs[lo] / vals[lo])

    raw = {k: 1.0 for k in ks}
    no_info = {k: k / (x * (k - 1)) for k in ks}
    sw_ratio, sw_se = spread("switch", no_info)
    ucb_ratio, ucb_se = spread("ucb", no_info)
    contrast_se = sw_se + ucb_se
    points = [
        _point(f"switch: max/min of R_T / no-information regret over K={list(ks)}", sw_ratio, 2.0, sw_se),
        CheckPoint(
            "contrast: switch ratio < ucb ratio - 3 se",
            sw_ratio,
            ucb_ratio,
            contrast_se,
            sw_ratio > ucb_ratio - 3.0 * contrast_se,
        ),
    ]
    for k_lo, k_hi in zip(ks[:-1], ks[1:]):
        diff = norm[("ucb", k_lo)] - norm[("ucb", k_hi)]
        se = err[("ucb", k_lo)] + err[("ucb", k_hi)]
        points.append(_point(f"ucb: normalized regret grows K={k_lo}->{k_hi}", diff, 0.0, se))
    values = {f"{label}-K{k}": v for (label, k), v in norm.items()}
    values.update({f"{label}-noinfo-K{k}": v * no_info[k] for (label, k), v in norm.items()})
    values["switch-ratio"] = spread("switch", raw)[0]
    values["ucb-ratio"] = spread("ucb", raw)[0]
    values["switch-noinfo-ratio"] = sw_ratio
    values["ucb-noinfo-ratio"] = ucb_ratio
    values["contrast-margin-se"] = (ucb_ratio - sw_ratio) / contrast_se
    return BoundCheckReport("regret-minimax-profile", points, runs, values=values)


# ---------------------------------------------------------------------------
# suites


SUITES = (
    "kinf-oracle",
    "deviation",
    "concentration",
    "hoeffding",
    "ordering",
    "lambert",
    "regret-bounds",
    "all",
)

_U_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))


def run_suite(name: str, runs: int | None = None, parallelism: int = 1) -> list:
    """Run one named verification suite; returns its reports."""
    if name == "kinf-oracle":
        return [
            kinf_grid_oracle_check(n_dists=runs or 500),
            bernoulli_identity_check(),
            regularity_check(samples=runs * 20 if runs else 10_000),
        ]
    if name == "deviation":
        n_runs = runs or 100_000
        reports = []
        for p in (0.3, 0.5):
            for n in (10, 50):
                reports.append(kinf_deviation_check(Bernoulli(p), n, _U_GRID, n_runs, seed=91_000 + n + int(p * 10)))
        for n in (5, 20):
            reports.append(
                kinf_integrated_deviation_check(Bernoulli(0.5), n, (0.05, 0.2), min(n_runs, 10_000), seed=92_000 + n)
            )
        return reports
    if name == "concentration":
        n_runs = runs or 100_000
        return [
            kinf_concentration_check(Bernoulli(0.2), 0.5, (20, 100), n_runs, seed=93_000),
            gamma_floor_check(),
        ]
    if name == "hoeffding":
        n_runs = runs or 10_000
        return [
            hoeffding_max_check(Bernoulli(0.5), 20, (0.05, 0.1, 0.2, 0.3, 0.4), n_runs, seed=94_000),
            hoeffding_integrated_check(Bernoulli(0.5), 20, (0.0, 0.05, 0.1), n_runs, seed=94_001),
        ]
    if name == "ordering":
        return [index_ordering_check(runs=runs or 100)]
    if name == "lambert":
        return [lambert_residual_check()]
    if name == "regret-bounds":
        return [
            distribution_free_check(runs=runs or 1000, parallelism=parallelism),
            distribution_dependent_check(runs=runs or 2000, parallelism=parallelism),
            minimax_profile_check(runs=runs or 5000, parallelism=parallelism),
        ]
    if name == "all":
        reports = []
        for sub in SUITES[:-1]:
            reports.extend(run_suite(sub, runs=runs, parallelism=parallelism))
        return reports
    raise ValueError(f"unknown suite {name!r}; known: {SUITES}")
