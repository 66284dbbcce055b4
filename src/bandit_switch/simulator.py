"""Episode execution and Monte-Carlo aggregation of regret curves.

Both engines are the one loop :func:`._vector.simulate`.  The scalar
reference engine, ``run_episode``, runs it on one run with its empirical
distributions, so the empirical-likelihood families use ``kinf`` on any
support; the vectorised engine runs it on a batch without them, where
that is exact.  ``monte_carlo`` fans a scenario out over per-run seeds
derived from ``(base_seed, policy ordinal, run ordinal)`` and aggregates
pseudo-regret at the recorded steps.  A scenario's policies on each engine
run in lock step as one batch, cut into chunks of runs; every chunk job of
one call is one ``simulate`` call, and all go through :func:`_map_jobs`,
which starts a pool only at width above 1.

Regret is pseudo-regret, the gap-weighted count of sub-optimal pulls
``sum_a gap_a * N_a(t)``; its expectation is the usual expected regret and
it has lower Monte-Carlo variance than realised-reward regret.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _vector
from ._rng import derive_key
from .distributions import BanditInstance, Bernoulli, ConfigurationError, integer, positive_int
from .policies import PolicySpec

__all__ = [
    "ConfigurationError",
    "Scenario",
    "EpisodeResult",
    "RegretCurve",
    "default_record_grid",
    "gap_profile",
    "run_seed",
    "run_episode",
    "monte_carlo",
    "normalized_regret",
]


def _sorted_unique(x) -> np.ndarray:
    """The distinct values of ``x`` in increasing order, as ``np.unique``
    gives them, without the ``numpy.ma`` import (about 20 ms) that
    ``np.unique`` pulls in."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] > x[:-1]
    return x[keep]


_RECORD_POINTS = 50  # of the geometric recording grid, before rounding merges some


def default_record_grid(k: int, horizon: int) -> tuple:
    """Geometric grid of recording steps from K to T, both included:
    ``np.geomspace`` sets its two endpoints exactly."""
    if horizon < k:
        raise ConfigurationError("horizon must be at least the number of arms")
    grid = _sorted_unique(np.rint(np.geomspace(max(k, 1), horizon, _RECORD_POINTS)).astype(np.int64))
    return tuple(int(g) for g in grid)


def gap_profile(k: int, horizon: int, x: float) -> BanditInstance:
    """The instance of the paper's Figure 2: one Bernoulli(0.8) arm and
    ``k - 1`` arms at 0.8 - x sqrt(K/T)."""
    gap = x * math.sqrt(k / horizon)
    if gap >= 0.8:
        raise ConfigurationError(f"gap x*sqrt(K/T)={gap:.3f} pushes arm means below 0")
    return BanditInstance((Bernoulli(0.8),) + tuple(Bernoulli(0.8 - gap) for _ in range(k - 1)))


@dataclass(frozen=True)
class Scenario:
    """A full experiment: bandit instance, horizon, policy roster, run
    count, base seed, and the steps at which regret is recorded."""

    bandit: BanditInstance
    horizon: int
    policies: tuple
    runs: int
    base_seed: int
    record_grid: tuple = ()
    bins: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "horizon", positive_int(self.horizon, "horizon"))
        object.__setattr__(self, "runs", positive_int(self.runs, "runs"))
        object.__setattr__(self, "base_seed", integer(self.base_seed, "seed"))
        if self.horizon < self.bandit.k:
            raise ConfigurationError("horizon must be at least the number of arms")
        if not self.policies:
            raise ConfigurationError("at least one policy is required")
        object.__setattr__(self, "policies", tuple(self.policies))
        if len(set(self.policy_names)) != len(self.policies):
            raise ConfigurationError(f"duplicate policy names in roster: {self.policy_names}")
        if self.bins is not None:
            object.__setattr__(self, "bins", positive_int(self.bins, "bins"))
        grid = tuple(positive_int(t, "record_grid entry") for t in self.record_grid)
        grid = grid or default_record_grid(self.bandit.k, self.horizon)
        if list(grid) != sorted(set(grid)):
            raise ConfigurationError("record_grid must be strictly increasing")
        if grid[0] < 1 or grid[-1] > self.horizon:
            raise ConfigurationError("record_grid must lie within [1, horizon]")
        object.__setattr__(self, "record_grid", grid)

    @property
    def policy_names(self) -> tuple:
        return tuple(p.name for p in self.policies)


@dataclass
class EpisodeResult:
    """One run: per-step pseudo-regret, final pull counts, action log."""

    trajectory: np.ndarray
    pulls: np.ndarray
    actions: np.ndarray


@dataclass
class RegretCurve:
    """Mean pseudo-regret with standard error at recorded steps, one row
    block per policy, with the engine and the number of run chunks each
    policy was simulated in."""

    policies: tuple
    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    runs: int
    engines: tuple
    chunks: tuple

    def policy_row(self, policy: str) -> tuple:
        i = self.policies.index(policy)
        return self.mean[i], self.stderr[i]

    def final_mean(self, policy: str) -> float:
        return float(self.policy_row(policy)[0][-1])

    def final_stderr(self, policy: str) -> float:
        return float(self.policy_row(policy)[1][-1])


def run_seed(base_seed: int, policy_index: int, run_index: int) -> int:
    """Per-run seed: a 64-bit split of (base seed, policy, run)."""
    return int(derive_key(base_seed, policy_index, run_index)[0])


def run_episode(
    bandit: BanditInstance,
    spec: PolicySpec,
    horizon: int,
    seed: int,
    bins: Optional[int] = None,
) -> EpisodeResult:
    """Scalar reference episode: :func:`._vector.simulate` on one run with
    its empirical distributions, recording every step.

    Deterministic in ``seed``; rewards and tie-breaks are pure functions
    of (seed, step), so the same seed always replays the same run.
    """
    k = bandit.k
    if horizon < k:
        raise ConfigurationError("horizon must be at least the number of arms")
    steps = range(1, horizon + 1)
    regrets, actions = _vector.simulate(bandit, spec, horizon, [seed], steps, record_actions=True, empirical=True, bins=bins)
    return EpisodeResult(trajectory=regrets[0], pulls=np.bincount(actions[0], minlength=k), actions=actions[0])


def _map_jobs(fn, jobs, width: int) -> list:
    """``[fn(job) for job in jobs]``: in the calling process at ``width`` 1,
    else over one pool of ``width`` worker processes, the package's only
    pool.  ``concurrent.futures`` and ``multiprocessing`` (about 21 ms of
    imports) load only then."""
    if width <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, jobs))


def _chunk_worker(args):
    """One chunk job: one :func:`._vector.simulate` batch, empirical on the scalar engine."""
    bandit, specs, horizon, grid, seeds, engine, bins = args
    return _vector.simulate(bandit, specs, horizon, seeds, grid, empirical=engine == "scalar", bins=bins)


def _policy_engine(scenario: Scenario, spec: PolicySpec, *_) -> str:
    """The engine that simulates ``spec`` on ``scenario``: the vectorised
    one, which keeps no empirical distributions, unless ``spec`` reads them
    and an arm is not supported on {0, 1}; else the scalar one.  On {0, 1}
    the distributions reduce to their means, and ``bins`` leaves 0 and 1 as
    they are.  Further positional arguments are ignored (the replay check in
    ``bench/checks.py`` still passes one)."""
    binary = all(arm.support_binary for arm in scenario.bandit.arms)
    return "scalar" if spec.needs_distributions and not binary else "vector"


# Narrowest vector chunk given a worker of its own, in (policy, run, arm)
# cells of the batch.  A step of `_vector.simulate` costs about a + b * cells;
# four fits of per-step CPU time on fig1-left's arms (horizon 600 or 3000,
# widths 100 to 1600, min over 4-12 repetitions) put the break-even width
# a / b at 700-970 cells for the klucb families (a 90-110 us, b 0.11-0.14
# us) and at most 440 for imed, ucb and moss.  This is the largest, rounded
# up to a power of two; fits on a loaded machine scatter up to about 1,100.
_MIN_CHUNK_CELLS = 1024


# Most bytes of empirical atoms per chunk, which take at most (policy, run)
# rows x T x 16: a step adds at most one float64 value and one int64 count
# per row.  CPU time per run-step on fig1-right's arms (klucb-anytime,
# klucb-switch-anytime 8/9 and imed, T = 2000) was 238 us at 3 rows, 118 at
# 6 and 104-109 at 12 to 48, so 12 rows amortise a step; 32 MiB keeps 12 up
# to T = 1.7e5, 17 times the paper's horizon, and 209 at T = 10^4.
_ATOM_BUDGET = 32 << 20


def _chunk_count(runs: int, policies: int, k: int, horizon: int, parallelism: int, engine: str) -> int:
    """Run chunks, at most one per run, for ``runs`` runs of a batch of
    ``policies`` policies on ``k`` arms.  A vector batch pays a fixed numpy
    call overhead per step whatever its width, so it gets at most one chunk
    per worker, and only as many as keep each at least ``_MIN_CHUNK_CELLS``
    (policy, run, arm) cells wide.  An empirical batch gets at least one
    per worker, and as many more as keep each one's atoms within
    ``_ATOM_BUDGET``."""
    if engine == "vector":
        return max(1, min(parallelism, runs, runs * policies * k // _MIN_CHUNK_CELLS))
    fit = max(1, _ATOM_BUDGET // (policies * horizon * 16))  # runs per chunk
    return min(runs, max(parallelism, -(-runs // fit)))


def monte_carlo(scenario: Scenario, parallelism: int = 1) -> RegretCurve:
    """Run the scenario; aggregate per-policy mean regret and stderr.

    Per-run seeds are pre-assigned from (base_seed, policy, run), so the
    result does not depend on ``parallelism`` or on completion order.
    The policies on each engine run as one batch, each chunk of it holding
    every one of them on the same range of runs; :func:`_chunk_count` sets
    both cuts.  All jobs share one pool of at most ``parallelism`` workers,
    vector chunks first, started only for two jobs or more; each policy's
    rows are stacked in run order.
    """
    parallelism = positive_int(parallelism, "parallelism")
    grid = scenario.record_grid
    names = scenario.policy_names
    runs, k = scenario.runs, scenario.bandit.k
    specs = scenario.policies
    engines = tuple(_policy_engine(scenario, spec) for spec in specs)
    jobs, owners, counts = [], [], {}
    for eng in sorted(set(engines), reverse=True):  # "vector" chunks first
        members = [p for p, e in enumerate(engines) if e == eng]
        n = counts[eng] = _chunk_count(runs, len(members), k, scenario.horizon, parallelism, eng)
        bounds = [runs * i // n for i in range(n + 1)]  # chunks of at most ceil(runs / n) runs
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            seeds = derive_key(scenario.base_seed, np.array(members)[:, None], np.arange(lo, hi)).ravel()  # rows policy-major
            batch = tuple(specs[p] for p in members)
            jobs.append((scenario.bandit, batch, scenario.horizon, grid, seeds, eng, scenario.bins))
            owners.append((members, lo, hi))

    parts = _map_jobs(_chunk_worker, jobs, min(parallelism, len(jobs)))

    regrets = np.empty((len(specs), runs, len(grid)))
    for (members, lo, hi), part in zip(owners, parts):
        regrets[members, lo:hi] = part.reshape(len(members), hi - lo, len(grid))
    mean = np.empty((len(specs), len(grid)))
    stderr = np.zeros((len(specs), len(grid)))
    for p_idx, rows in enumerate(regrets):
        mean[p_idx] = rows.mean(axis=0)
        if runs > 1:
            stderr[p_idx] = rows.std(axis=0, ddof=1) / math.sqrt(runs)

    return RegretCurve(
        policies=names,
        grid=np.asarray(grid, dtype=np.int64),
        mean=mean,
        stderr=stderr,
        runs=runs,
        engines=engines,
        chunks=tuple(counts[e] for e in engines),
    )


def normalized_regret(curve: RegretCurve, k: int, horizon: int, policy: Optional[str] = None):
    """Final mean regret divided by sqrt(K T); per-policy dict when the
    curve holds several policies and none is named."""
    scale = math.sqrt(k * horizon)
    if policy is not None:
        return curve.final_mean(policy) / scale
    if len(curve.policies) == 1:
        return curve.final_mean(curve.policies[0]) / scale
    return {p: curve.final_mean(p) / scale for p in curve.policies}
