"""Episode execution and Monte-Carlo aggregation of regret curves.

Both engines are the one loop :func:`._vector.simulate`.  The scalar
reference engine, ``run_episode``, runs it on one run with its empirical
distributions, so the empirical-likelihood families use ``kinf`` on any
support; the vectorised engine runs it on a batch without them, where
that is exact.  ``monte_carlo`` fans a scenario out over per-run seeds
derived from ``(base_seed, policy ordinal, run ordinal)`` and aggregates
pseudo-regret at the recorded steps.  A scenario's vector-engine policies
run in lock step as one batch, cut into chunks of runs; every chunk job of
one call, batch or scalar, goes through a single worker pool.

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


def default_record_grid(k: int, horizon: int, points: int = 50) -> tuple:
    """Geometric grid of recording steps from K to T, always including T."""
    if horizon < k:
        raise ConfigurationError("horizon must be at least the number of arms")
    lo = max(k, 1)
    grid = _sorted_unique(np.rint(np.geomspace(lo, horizon, points)).astype(np.int64))
    grid = grid[(grid >= 1) & (grid <= horizon)]
    if grid.size == 0 or grid[-1] != horizon:
        grid = np.append(grid, horizon)
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


def _chunk_worker(args):
    # Scalar-engine runs go one at a time: their distributions grow by an atom per pull.
    bandit, specs, horizon, grid, seeds, engine, bins = args
    if engine == "vector":
        return _vector.simulate(bandit, specs, horizon, seeds, grid)
    return np.vstack([_vector.simulate(bandit, specs, horizon, [sd], grid, empirical=True, bins=bins) for sd in seeds])


def _policy_engine(scenario: Scenario, spec: PolicySpec, *_) -> str:
    """The engine that simulates ``spec`` on ``scenario``: the vectorised
    one, which keeps no empirical distributions, unless ``spec`` reads them
    and they do not reduce to their means, because an arm is not supported
    on {0, 1} or ``bins`` rounds their atoms; else the scalar one.  Further
    positional arguments are ignored (the replay check in ``bench/checks.py``
    still passes one)."""
    binary = scenario.bins is None and all(arm.support_binary for arm in scenario.bandit.arms)
    return "scalar" if spec.needs_distributions and not binary else "vector"


# Narrowest vector chunk given a worker of its own, in (policy, run, arm)
# cells of the batch.  A step of `_vector.simulate` costs about a + b * cells;
# four fits of per-step CPU time on fig1-left's arms (horizon 600 or 3000,
# widths 100 to 1600, min over 4-12 repetitions) put the break-even width
# a / b at 700-970 cells for the klucb families (a 90-110 us, b 0.11-0.14
# us) and at most 440 for imed, ucb and moss.  This is the largest, rounded
# up to a power of two; fits on a loaded machine scatter up to about 1,100.
_MIN_CHUNK_CELLS = 1024


def _chunk_count(runs: int, width: int, parallelism: int, engine: str) -> int:
    """Run chunks for ``runs`` runs of ``width`` cells each (for the vector
    batch, its policies times the arms).  A vector batch pays a fixed numpy
    call overhead per step whatever its width, so it is cut into at most
    one chunk per worker, and only into as many as keep each chunk at least
    ``_MIN_CHUNK_CELLS`` cells wide; a narrower batch runs whole.  Scalar
    runs cost the same per run in any chunk, so they get a finer split, 4
    per worker (at most one per run), to balance load."""
    if parallelism == 1:
        return 1
    if engine == "vector":
        return max(1, min(parallelism, runs * width // _MIN_CHUNK_CELLS))
    return min(4 * parallelism, runs)


def monte_carlo(scenario: Scenario, parallelism: int = 1) -> RegretCurve:
    """Run the scenario; aggregate per-policy mean regret and stderr.

    Per-run seeds are pre-assigned from (base_seed, policy, run), so the
    result does not depend on ``parallelism`` or on completion order.
    The vector-engine policies run as one batch, each chunk of it holding
    every one of them on the same range of runs; each scalar-engine
    policy's runs are cut on their own.  :func:`_chunk_count` sets both
    cuts, so a narrow batch runs whole.  All jobs share one pool of at most
    ``parallelism`` workers, batch chunks first, and each policy's rows
    are stacked in run order.
    """
    parallelism = positive_int(parallelism, "parallelism")
    grid = scenario.record_grid
    names = scenario.policy_names
    runs, k = scenario.runs, scenario.bandit.k
    specs = scenario.policies
    engines = tuple(_policy_engine(scenario, spec) for spec in specs)
    vector = [p for p, eng in enumerate(engines) if eng == "vector"]
    groups = [(vector, "vector")] if vector else []
    groups += [([p], eng) for p, eng in enumerate(engines) if eng == "scalar"]

    chunks = [0] * len(specs)
    jobs, owners = [], []
    for members, eng in groups:
        bounds = np.linspace(0, runs, _chunk_count(runs, len(members) * k, parallelism, eng) + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                seeds = [run_seed(scenario.base_seed, p, r) for p in members for r in range(lo, hi)]
                batch = tuple(specs[p] for p in members)
                jobs.append((scenario.bandit, batch, scenario.horizon, grid, seeds, eng, scenario.bins))
                owners.append((members, lo, hi))
                for p in members:
                    chunks[p] += 1

    width = min(parallelism, len(jobs))
    if width > 1:
        with ProcessPoolExecutor(max_workers=width) as pool:
            parts = list(pool.map(_chunk_worker, jobs))
    else:
        parts = [_chunk_worker(j) for j in jobs]

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
