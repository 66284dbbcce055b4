"""Episode execution and Monte-Carlo aggregation of regret curves.

``run_episode`` is the scalar reference engine: one run, plain Python
loop, indices computed on the run's (1, K) state by the kernel in
:mod:`._vector`.  ``monte_carlo`` fans a scenario out over per-run seeds
derived from ``(base_seed, policy ordinal, run ordinal)`` and aggregates
pseudo-regret at the recorded steps; when the policy/arm combination
allows it, runs are simulated in vectorised batches by :mod:`._vector`,
which reproduces the scalar engine run for run.  Every (policy, chunk)
job of one call goes through a single worker pool.

Regret is pseudo-regret, the gap-weighted count of sub-optimal pulls
``sum_a gap_a * N_a(t)``; its expectation is the usual expected regret and
it has lower Monte-Carlo variance than realised-reward regret.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _vector
from ._rng import CH_REWARD, CH_TIE, derive_key, mix64, unit_uniform
from .distributions import BanditInstance, ConfigurationError, integer, positive_int
from .policies import PolicySpec, PolicyState, select_arm, update

__all__ = [
    "ConfigurationError",
    "Scenario",
    "EpisodeResult",
    "RegretCurve",
    "default_record_grid",
    "run_seed",
    "run_episode",
    "monte_carlo",
    "normalized_regret",
]


def default_record_grid(k: int, horizon: int, points: int = 50) -> tuple:
    """Geometric grid of recording steps from K to T, always including T."""
    if horizon < k:
        raise ConfigurationError("horizon must be at least the number of arms")
    lo = max(k, 1)
    grid = np.unique(np.rint(np.geomspace(lo, horizon, points)).astype(np.int64))
    grid = grid[(grid >= 1) & (grid <= horizon)]
    if grid.size == 0 or grid[-1] != horizon:
        grid = np.append(grid, horizon)
    return tuple(int(g) for g in grid)


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
        if self.bins is not None:
            object.__setattr__(self, "bins", positive_int(self.bins, "bins"))
        grid = tuple(self.record_grid) or default_record_grid(self.bandit.k, self.horizon)
        if list(grid) != sorted(set(grid)):
            raise ConfigurationError("record_grid must be strictly increasing")
        if grid[0] < 1 or grid[-1] > self.horizon:
            raise ConfigurationError("record_grid must lie within [1, horizon]")
        object.__setattr__(self, "record_grid", grid)

    @property
    def policy_names(self) -> tuple:
        names = tuple(p.name for p in self.policies)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate policy names in roster: {names}")
        return names


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
    return derive_key(base_seed, policy_index, run_index)


def run_episode(
    bandit: BanditInstance,
    spec: PolicySpec,
    horizon: int,
    seed: int,
    bins: Optional[int] = None,
) -> EpisodeResult:
    """Scalar reference episode: each arm once, then the index loop.

    Deterministic in ``seed``; rewards and tie-breaks are pure functions
    of (seed, step), so the same seed always replays the same run.
    """
    k = bandit.k
    if horizon < k:
        raise ConfigurationError("horizon must be at least the number of arms")
    key = mix64(seed)
    state = PolicyState.fresh(k, bins=bins)
    gaps = bandit.gaps
    trajectory = np.empty(horizon)
    actions = np.empty(horizon, dtype=np.int32)
    regret = 0.0

    for step in range(1, k + 1):
        a = step - 1
        u = unit_uniform(key, step, CH_REWARD)
        r = float(bandit.arms[a].quantile(u))
        update(state, a, r)
        regret += gaps[a]
        trajectory[step - 1] = regret
        actions[step - 1] = a

    for step in range(k + 1, horizon + 1):
        tie_u = unit_uniform(key, step, CH_TIE)
        a = select_arm(spec, state, tie_u=tie_u)
        u = unit_uniform(key, step, CH_REWARD)
        r = float(bandit.arms[a].quantile(u))
        update(state, a, r)
        regret += gaps[a]
        trajectory[step - 1] = regret
        actions[step - 1] = a

    pulls = state.counts[0].astype(np.int64)
    return EpisodeResult(trajectory=trajectory, pulls=pulls, actions=actions)


def _scalar_chunk(bandit, spec, horizon, grid, seeds, bins):
    grid_idx = np.asarray(grid, dtype=np.int64) - 1
    out = np.empty((len(seeds), len(grid)))
    for i, sd in enumerate(seeds):
        out[i] = run_episode(bandit, spec, horizon, sd, bins=bins).trajectory[grid_idx]
    return out


def _chunk_worker(args):
    bandit, spec, horizon, grid, seeds, engine, bins = args
    if engine == "vector":
        return _vector.simulate(bandit, spec, horizon, seeds, grid)
    return _scalar_chunk(bandit, spec, horizon, grid, seeds, bins)


def _policy_engine(scenario: Scenario, spec: PolicySpec, *_) -> str:
    """The engine that simulates ``spec`` on ``scenario``: the vectorised
    one wherever it is exact, unless ``bins`` rounds the atoms of the
    empirical distributions that ``spec`` reads; else the scalar one.
    Further positional arguments are ignored (the replay check in
    ``bench/checks.py`` still passes one)."""
    if scenario.bins is not None and spec.needs_distributions:
        return "scalar"
    return "vector" if _vector.supports(scenario.bandit, spec) else "scalar"


# Narrowest vector chunk given a worker of its own, in (run, arm) cells.
# A step of `_vector.simulate` costs about a + b * cells; four fits of
# per-step CPU time on fig1-left's arms (horizon 600 or 3000, widths 100
# to 800 or 1600) put the break-even width a / b at 710-1010 cells for the
# klucb families (a 135-190 us, b 0.16-0.21 us) and at most 440 for imed,
# ucb and moss.  This is the largest, rounded up to a power of two.
_MIN_CHUNK_CELLS = 1024


def _chunk_count(runs: int, k: int, parallelism: int, engine: str) -> int:
    """Run chunks for one policy over ``k`` arms.  A vector batch pays a
    fixed numpy call overhead per step whatever its width, so it is cut
    into at most one chunk per worker, and only into as many as keep each
    chunk at least ``_MIN_CHUNK_CELLS`` cells wide; a narrower batch runs
    whole.  Scalar runs cost the same per run in any chunk, so they get a
    finer split, 4 per worker (at most one per run), to balance load."""
    if parallelism == 1:
        return 1
    if engine == "vector":
        return max(1, min(parallelism, runs * k // _MIN_CHUNK_CELLS))
    return min(4 * parallelism, runs)


def monte_carlo(scenario: Scenario, parallelism: int = 1) -> RegretCurve:
    """Run the scenario; aggregate per-policy mean regret and stderr.

    Per-run seeds are pre-assigned from (base_seed, policy, run), so the
    result does not depend on ``parallelism`` or on completion order.
    Each policy's runs are cut into chunks by :func:`_chunk_count`, so a
    narrow vector batch runs whole; all (policy, chunk) jobs share one
    pool of at most ``parallelism`` workers, which takes them in roster
    order, and each policy's rows are stacked in run order.
    """
    parallelism = positive_int(parallelism, "parallelism")
    grid = scenario.record_grid
    names = scenario.policy_names
    runs = scenario.runs
    engines, chunks, jobs = [], [], []
    for p_idx, spec in enumerate(scenario.policies):
        eng = _policy_engine(scenario, spec)
        seeds = [run_seed(scenario.base_seed, p_idx, r) for r in range(runs)]
        bounds = np.linspace(0, runs, _chunk_count(runs, scenario.bandit.k, parallelism, eng) + 1).astype(int)
        own = [
            (scenario.bandit, spec, scenario.horizon, grid, seeds[lo:hi], eng, scenario.bins)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        engines.append(eng)
        chunks.append(len(own))
        jobs.extend(own)

    width = min(parallelism, len(jobs))
    if width > 1:
        with ProcessPoolExecutor(max_workers=width) as pool:
            parts = list(pool.map(_chunk_worker, jobs))
    else:
        parts = [_chunk_worker(j) for j in jobs]

    mean = np.empty((len(chunks), len(grid)))
    stderr = np.zeros((len(chunks), len(grid)))
    ends = np.cumsum(chunks)
    for p_idx, (lo, hi) in enumerate(zip(ends - chunks, ends)):
        regrets = np.vstack(parts[lo:hi])
        mean[p_idx] = regrets.mean(axis=0)
        if runs > 1:
            stderr[p_idx] = regrets.std(axis=0, ddof=1) / math.sqrt(runs)

    return RegretCurve(
        policies=names,
        grid=np.asarray(grid, dtype=np.int64),
        mean=mean,
        stderr=stderr,
        runs=runs,
        engines=tuple(engines),
        chunks=tuple(chunks),
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
