"""Episode execution, Monte-Carlo aggregation, reproducibility, and
scalar/vector engine agreement."""

import math

import numpy as np
import pytest

from bandit_switch import (
    BanditInstance,
    Bernoulli,
    ConfigurationError,
    Dirac,
    PolicySpec,
    Scenario,
    TruncatedGaussian,
    default_record_grid,
    monte_carlo,
    normalized_regret,
    run_episode,
    run_seed,
)
from bandit_switch import _vector
from bandit_switch._rng import CH_REWARD, CH_TIE, unit_uniform, unit_uniform_array

BERN3 = BanditInstance((Bernoulli(0.8), Bernoulli(0.5), Bernoulli(0.3)))


def test_horizon_equal_to_arms_plays_each_once():
    ep = run_episode(BERN3, PolicySpec("ucb"), 3, seed=1)
    assert list(ep.pulls) == [1, 1, 1]
    assert ep.trajectory[-1] == pytest.approx(float(BERN3.gaps.sum()), abs=1e-12)


def test_single_arm_has_zero_regret():
    bandit = BanditInstance((Bernoulli(0.4),))
    ep = run_episode(bandit, PolicySpec("ucb"), 50, seed=2)
    assert np.all(ep.trajectory == 0.0)
    assert ep.pulls[0] == 50


def test_horizon_below_arms_is_rejected():
    with pytest.raises(ConfigurationError):
        run_episode(BERN3, PolicySpec("ucb"), 2, seed=3)


def test_same_seed_is_bit_identical():
    spec = PolicySpec("klucb-switch", horizon=300)
    a = run_episode(BERN3, spec, 300, seed=99)
    b = run_episode(BERN3, spec, 300, seed=99)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.actions, b.actions)


def test_trajectory_is_nondecreasing_and_bounded():
    spec = PolicySpec("moss-anytime")
    ep = run_episode(BERN3, spec, 400, seed=4)
    assert np.all(np.diff(ep.trajectory) >= -1e-12)
    t = np.arange(1, 401)
    assert np.all(ep.trajectory <= t * BERN3.gaps.max() + 1e-12)
    assert ep.pulls.sum() == 400


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("ucb", {}),
        ("moss", {"horizon": 250}),
        ("moss-anytime", {}),
        ("klucb", {"horizon": 250}),
        ("klucb-anytime", {}),
        ("klucb-switch", {"horizon": 250}),
        ("klucb-switch-anytime", {"switch_exponent": 8.0 / 9.0}),
        ("imed", {}),
    ],
)
def test_vector_engine_replays_scalar_runs(family, kwargs):
    spec = PolicySpec(family, **kwargs)
    horizon = 250
    seeds = [run_seed(31_337, 0, r) for r in range(4)]
    grid = tuple(range(1, horizon + 1))
    regrets, actions = _vector.simulate(BERN3, spec, horizon, seeds, grid, record_actions=True)
    for r, sd in enumerate(seeds):
        ep = run_episode(BERN3, spec, horizon, sd)
        assert np.array_equal(ep.actions, actions[r]), f"run {r} diverged"
        assert np.allclose(ep.trajectory, regrets[r], atol=1e-9)


@pytest.mark.parametrize("family,kwargs", [("moss", {"horizon": 200}), ("klucb-gauss", {"sigma": 0.1})])
def test_vector_engine_replays_scalar_runs_gaussian_arms(family, kwargs):
    bandit = BanditInstance((TruncatedGaussian(0.7, 0.1), TruncatedGaussian(0.5, 0.1)))
    spec = PolicySpec(family, **kwargs)
    seeds = [run_seed(7, 0, r) for r in range(3)]
    grid = tuple(range(1, 201))
    regrets, actions = _vector.simulate(bandit, spec, 200, seeds, grid, record_actions=True)
    for r, sd in enumerate(seeds):
        ep = run_episode(bandit, spec, 200, sd)
        assert np.array_equal(ep.actions, actions[r])
        assert np.allclose(ep.trajectory, regrets[r], atol=1e-9)


def test_vector_engine_replays_scalar_runs_discrete_binary_arms():
    # a {0,1}-supported discrete arm counts as binary for the divergence
    # families, and its rewards go through the generic grouped draw path
    from bandit_switch import Discrete

    bandit = BanditInstance((Discrete((0.0, 1.0), (0.3, 0.7)), Bernoulli(0.5)))
    spec = PolicySpec("klucb-anytime")
    assert _vector.supports(bandit, spec)
    seeds = [run_seed(9, 0, r) for r in range(3)]
    grid = tuple(range(1, 161))
    regrets, actions = _vector.simulate(bandit, spec, 160, seeds, grid, record_actions=True)
    for r, sd in enumerate(seeds):
        ep = run_episode(bandit, spec, 160, sd)
        assert np.array_equal(ep.actions, actions[r])
        assert np.allclose(ep.trajectory, regrets[r], atol=1e-9)


def test_vector_engine_replays_scalar_runs_exponential_comparator():
    from bandit_switch import TruncatedExponential

    bandit = BanditInstance((TruncatedExponential(0.15), TruncatedExponential(0.10)))
    spec = PolicySpec("klucb-exp")
    seeds = [run_seed(8, 0, r) for r in range(3)]
    grid = tuple(range(1, 181))
    regrets, actions = _vector.simulate(bandit, spec, 180, seeds, grid, record_actions=True)
    for r, sd in enumerate(seeds):
        ep = run_episode(bandit, spec, 180, sd)
        assert np.array_equal(ep.actions, actions[r])
        assert np.allclose(ep.trajectory, regrets[r], atol=1e-9)


def test_vector_engine_support_matrix():
    gauss = BanditInstance((TruncatedGaussian(0.7, 0.1), TruncatedGaussian(0.5, 0.1)))
    assert _vector.supports(gauss, PolicySpec("moss", horizon=10))
    assert _vector.supports(gauss, PolicySpec("klucb-gauss"))
    assert not _vector.supports(gauss, PolicySpec("klucb-anytime"))
    assert _vector.supports(BERN3, PolicySpec("klucb-anytime"))


@pytest.mark.parametrize("family", ["klucb-anytime", "klucb-switch-anytime"])
def test_monte_carlo_matches_run_episode_rows(family):
    spec = PolicySpec(family)
    scenario = Scenario(bandit=BERN3, horizon=150, policies=(spec,), runs=6, base_seed=2024)
    curve = monte_carlo(scenario)
    grid_idx = np.asarray(scenario.record_grid) - 1
    rows = np.vstack(
        [run_episode(BERN3, spec, 150, run_seed(2024, 0, r)).trajectory[grid_idx] for r in range(6)]
    )
    assert np.allclose(curve.mean[0], rows.mean(axis=0), atol=1e-9)
    expected_se = rows.std(axis=0, ddof=1) / math.sqrt(6)
    assert np.allclose(curve.stderr[0], expected_se, atol=1e-9)


def test_parallel_equals_serial():
    specs = (PolicySpec("moss-anytime"), PolicySpec("klucb-switch-anytime"))
    scenario = Scenario(bandit=BERN3, horizon=200, policies=specs, runs=12, base_seed=555)
    serial = monte_carlo(scenario, parallelism=1)
    parallel = monte_carlo(scenario, parallelism=2)
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.stderr, parallel.stderr)


MIXED = BanditInstance((TruncatedGaussian(0.7, 0.2), Bernoulli(0.4)))
MIXED_ROSTER = (PolicySpec("ucb"), PolicySpec("klucb-anytime"), PolicySpec("moss-anytime"))


@pytest.mark.parametrize("runs", [7, 1])
def test_mixed_roster_is_invariant_to_parallelism(runs):
    # klucb-anytime takes the scalar engine (binned continuous arm) and
    # shares the pool with the vector policies around it
    scenario = Scenario(bandit=MIXED, horizon=40, policies=MIXED_ROSTER, runs=runs, base_seed=808, bins=20)
    curves = [monte_carlo(scenario, parallelism=p) for p in (1, 2, 3)]
    for curve in curves[1:]:
        assert np.array_equal(curve.mean, curves[0].mean)
        assert np.array_equal(curve.stderr, curves[0].stderr)
    assert all(c.engines == ("vector", "scalar", "vector") for c in curves)


def test_chunk_counts_follow_engine_and_parallelism():
    scenario = Scenario(bandit=MIXED, horizon=20, policies=MIXED_ROSTER, runs=7, base_seed=9, bins=20)
    # one chunk per worker for a vector batch, 4 per worker (at most one
    # per run) for scalar runs, one chunk in all at parallelism 1
    assert monte_carlo(scenario, parallelism=1).chunks == (1, 1, 1)
    assert monte_carlo(scenario, parallelism=2).chunks == (2, 7, 2)
    assert monte_carlo(scenario, parallelism=3).chunks == (3, 7, 3)
    one_run = Scenario(bandit=MIXED, horizon=20, policies=MIXED_ROSTER, runs=1, base_seed=9, bins=20)
    assert monte_carlo(one_run, parallelism=3).chunks == (1, 1, 1)


@pytest.mark.parametrize("parallelism,pools", [(2, 1), (1, 0)])
def test_one_pool_per_call(monkeypatch, parallelism, pools):
    from bandit_switch import simulator

    opened = []

    class CountingPool(simulator.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", CountingPool)
    specs = (
        PolicySpec("ucb"),
        PolicySpec("moss-anytime"),
        PolicySpec("klucb-anytime"),
        PolicySpec("klucb-switch-anytime"),
        PolicySpec("imed"),
    )
    scenario = Scenario(bandit=BERN3, horizon=50, policies=specs, runs=6, base_seed=4)
    curve = monte_carlo(scenario, parallelism=parallelism)
    assert len(opened) == pools
    assert all(width <= parallelism for width in opened)
    assert curve.engines == ("vector",) * 5


@pytest.mark.parametrize("bad", [0, -3, 1.5, "abc", True])
def test_monte_carlo_rejects_bad_parallelism(bad):
    scenario = Scenario(bandit=BERN3, horizon=10, policies=(PolicySpec("ucb"),), runs=2, base_seed=1)
    with pytest.raises(ConfigurationError, match="parallelism"):
        monte_carlo(scenario, parallelism=bad)


def test_single_run_has_zero_stderr():
    scenario = Scenario(bandit=BERN3, horizon=100, policies=(PolicySpec("ucb"),), runs=1, base_seed=5)
    curve = monte_carlo(scenario)
    assert np.all(curve.stderr == 0.0)


def test_dirac_arms_give_zero_stderr():
    # no reward noise and distinct means: every run follows one trajectory
    # (stderr only carries float summation dust)
    bandit = BanditInstance((Dirac(0.7), Dirac(0.3)))
    scenario = Scenario(bandit=bandit, horizon=100, policies=(PolicySpec("moss-anytime"),), runs=8, base_seed=6)
    curve = monte_carlo(scenario)
    assert np.all(curve.stderr <= 1e-12)


def test_record_grid_default_and_validation():
    grid = default_record_grid(3, 1000)
    assert grid[0] >= 1
    assert grid[-1] == 1000
    assert list(grid) == sorted(set(grid))
    with pytest.raises(ConfigurationError):
        Scenario(bandit=BERN3, horizon=100, policies=(PolicySpec("ucb"),), runs=1, base_seed=1, record_grid=(5, 200))
    with pytest.raises(ConfigurationError):
        Scenario(bandit=BERN3, horizon=2, policies=(PolicySpec("ucb"),), runs=1, base_seed=1)


def test_normalized_regret_values():
    scenario = Scenario(
        bandit=BanditInstance((Dirac(0.7), Dirac(0.3))),
        horizon=100,
        policies=(PolicySpec("moss-anytime", label="m"),),
        runs=2,
        base_seed=9,
    )
    curve = monte_carlo(scenario)
    val = normalized_regret(curve, 2, 100)
    assert val == pytest.approx(curve.final_mean("m") / math.sqrt(200), abs=1e-12)
    assert normalized_regret(curve, 2, 100, policy="m") == val


def test_vector_inversions_track_scalar_references_at_corners():
    # extreme (p, d) corners: means from huge samples, budgets from 1e-12
    # to the largest exploration values any policy produces
    from bandit_switch import EmpiricalDistribution, klucb_index
    from bandit_switch._vector import bern_klucb, exp_klucb
    from oracles import exp_kl_index

    for n in (1000, 100_000):
        for c in (1, n // 2, n - 1):
            p = c / n
            for d in (1e-12, 1e-4, 1.0, 12.0):
                vec = float(bern_klucb(np.array([p]), np.array([d]))[0])
                dist = EmpiricalDistribution([0.0, 1.0], [n - c, c])
                assert abs(vec - klucb_index(dist, d)) < 1e-10
    for h in (1e-6, 0.15, 0.99):
        for d in (1e-10, 0.1, 9.0):
            vec = float(exp_klucb(np.array([h]), np.array([d]))[0])
            assert abs(vec - exp_kl_index(h, d)) < 1e-10


def test_binned_distributions_force_scalar_engine_and_run():
    spec = PolicySpec("klucb-anytime")
    bandit = BanditInstance((TruncatedGaussian(0.7, 0.2), Bernoulli(0.4)))
    scenario = Scenario(bandit=bandit, horizon=60, policies=(spec,), runs=2, base_seed=3, bins=50)
    curve = monte_carlo(scenario)
    assert curve.mean.shape[0] == 1
    assert np.isfinite(curve.mean).all()


@pytest.mark.parametrize("channel", [CH_REWARD, CH_TIE])
def test_uniform_rows_equal_the_per_step_and_scalar_hash(channel):
    rng = np.random.default_rng(2024)
    keys = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), rng.integers(0, 2**64, 6, dtype=np.uint64)])
    steps = np.concatenate([[0, 1, 2, 3, 2**31 - 1, 2**32 + 5, 2**40 - 1, 2**40], rng.integers(1, 2**40, 8)])
    block = unit_uniform_array(keys, steps, channel)
    assert block.shape == (len(steps), len(keys))
    for row, step in zip(block, steps.tolist()):
        one_step = unit_uniform_array(keys, step, channel)
        scalar = np.array([unit_uniform(key, step, channel) for key in keys.tolist()])
        assert row.tobytes() == one_step.tobytes() == scalar.tobytes()


BERN_TIED = BanditInstance((Bernoulli(0.5), Bernoulli(0.5), Bernoulli(0.4)))


@pytest.mark.parametrize(
    "bandit,spec",
    [
        (BERN_TIED, PolicySpec("ucb")),
        (BERN_TIED, PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)),
        (BERN_TIED, PolicySpec("imed")),
        (BanditInstance((TruncatedGaussian(0.6, 0.2), TruncatedGaussian(0.5, 0.2))), PolicySpec("moss-anytime")),
    ],
    ids=["ucb", "switch", "imed", "moss-gaussian"],
)
@pytest.mark.parametrize("runs", [1, 5])
def test_simulate_does_not_depend_on_the_block_length(monkeypatch, bandit, spec, runs):
    horizon = 60
    seeds = [run_seed(8, 0, r) for r in range(runs)]
    grid = tuple(range(1, horizon + 1))
    # 1, a length that divides neither the horizon nor horizon - K (57 or 58), and the horizon
    outputs = {}
    for block in (1, 7, horizon):
        monkeypatch.setattr(_vector, "_BLOCK_ELEMS", block * runs)
        widths = []

        def recording(keys, step, channel):
            widths.append(np.size(step))
            return unit_uniform_array(keys, step, channel)

        monkeypatch.setattr(_vector, "unit_uniform_array", recording)
        regrets, actions = _vector.simulate(bandit, spec, horizon, seeds, grid, record_actions=True)
        assert max(widths) == block
        outputs[block] = (regrets.tobytes(), actions.tobytes())
    assert outputs[1] == outputs[7] == outputs[horizon]
