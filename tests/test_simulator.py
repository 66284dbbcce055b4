"""Episode execution, Monte-Carlo aggregation, reproducibility, and
scalar/vector engine agreement."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bandit_switch import (
    BanditInstance,
    Bernoulli,
    ConfigurationError,
    Dirac,
    Discrete,
    EmpiricalDistribution,
    PolicySpec,
    Scenario,
    TruncatedExponential,
    TruncatedGaussian,
    default_record_grid,
    monte_carlo,
    normalized_regret,
    run_episode,
    run_seed,
)
from bandit_switch import _vector
from bandit_switch._rng import CH_REWARD, CH_TIE, derive_key, mix64_array, unit_uniform_array
from bandit_switch.policies import _NEEDS_HORIZON, _READS
from bandit_switch.simulator import _policy_engine
import oracles
from oracles import mix64, scalar_episode, unit_uniform

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


BERN_FAMILIES = [
    ("ucb", {}),
    ("moss", {"horizon": 250}),
    ("moss-anytime", {}),
    ("klucb", {"horizon": 250}),
    ("klucb-anytime", {}),
    ("klucb-switch", {"horizon": 250}),
    ("klucb-switch-anytime", {"switch_exponent": 8.0 / 9.0}),
    ("imed", {}),
]


@pytest.mark.parametrize("family,kwargs", BERN_FAMILIES)
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
    bandit = BanditInstance((Discrete((0.0, 1.0), (0.3, 0.7)), Bernoulli(0.5)))
    spec = PolicySpec("klucb-anytime")
    assert _policy_engine(Scenario(bandit, 160, (spec,), runs=1, base_seed=9), spec) == "vector"
    seeds = [run_seed(9, 0, r) for r in range(3)]
    grid = tuple(range(1, 161))
    regrets, actions = _vector.simulate(bandit, spec, 160, seeds, grid, record_actions=True)
    for r, sd in enumerate(seeds):
        ep = run_episode(bandit, spec, 160, sd)
        assert np.array_equal(ep.actions, actions[r])
        assert np.allclose(ep.trajectory, regrets[r], atol=1e-9)


def test_vector_engine_replays_scalar_runs_exponential_comparator():
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
    # A policy that reads the empirical distributions runs on the vector
    # engine only when they reduce to their means: every arm on {0, 1}, with
    # or without bins, which leave 0 and 1 as they are.  Every other policy
    # runs on it always.
    gauss = (TruncatedGaussian(0.7, 0.1), TruncatedGaussian(0.5, 0.1))
    binary = (Dirac(1.0), Dirac(0.0), Discrete((0.0, 1.0), (0.3, 0.7)))
    rows = [
        (gauss, None, "moss", "vector"),
        (gauss, None, "klucb-gauss", "vector"),
        (gauss, None, "klucb-anytime", "scalar"),
        (gauss, 50, "ucb", "vector"),
        (BERN3.arms, None, "klucb-anytime", "vector"),
        (BERN3.arms, None, "imed", "vector"),
        (BERN3.arms, 50, "klucb-anytime", "vector"),
        (BERN3.arms, 50, "moss-anytime", "vector"),
        (binary, None, "klucb-switch-anytime", "vector"),
        (binary, None, "imed", "vector"),
        (binary, 50, "imed", "vector"),
        ((Dirac(0.5), Bernoulli(0.4)), None, "klucb-anytime", "scalar"),
        ((Discrete((0.0, 0.5, 1.0), (0.25, 0.5, 0.25)), Bernoulli(0.4)), None, "klucb", "scalar"),
    ]
    for arms, bins, family, engine in rows:
        spec = PolicySpec(family, horizon=10) if family in _NEEDS_HORIZON else PolicySpec(family)
        scenario = Scenario(BanditInstance(arms), 10, (spec,), runs=1, base_seed=0, bins=bins)
        assert _policy_engine(scenario, spec) == engine, (arms, bins, family)


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
    # a vector batch of 14 cells is far below the floor and runs whole; the
    # scalar batch's atoms, at most 1 policy x 7 runs x T = 20 x 16 bytes =
    # 2,240, are far below the byte budget, so it is cut into one chunk per
    # worker (at most one per run)
    assert monte_carlo(scenario, parallelism=1).chunks == (1, 1, 1)
    assert monte_carlo(scenario, parallelism=2).chunks == (1, 2, 1)
    assert monte_carlo(scenario, parallelism=3).chunks == (1, 3, 1)
    one_run = Scenario(bandit=MIXED, horizon=20, policies=MIXED_ROSTER, runs=1, base_seed=9, bins=20)
    assert monte_carlo(one_run, parallelism=3).chunks == (1, 1, 1)


@pytest.mark.parametrize(
    "k,runs,short,chunks",
    [(31, 33, 2, (1, 1, 1)), (32, 32, 0, (1, 2, 2))],
    ids=["just-below-two-chunks", "two-chunks"],
)
def test_vector_chunks_stay_at_least_the_floor_wide(k, runs, short, chunks):
    # the batch of both policies, 2 * runs * K cells, is as close below two
    # floors as an even count gets, resp. exactly two floors; each policy
    # alone is about one floor wide
    from bandit_switch import simulator

    assert 2 * runs * k == 2 * simulator._MIN_CHUNK_CELLS - short
    bandit = BanditInstance(tuple(Bernoulli(p) for p in np.linspace(0.2, 0.8, k)))
    specs = (PolicySpec("ucb"), PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0))
    scenario = Scenario(bandit=bandit, horizon=k + 20, policies=specs, runs=runs, base_seed=77)
    curves = [monte_carlo(scenario, parallelism=p) for p in (1, 2, 3)]
    assert [c.chunks for c in curves] == [(n, n) for n in chunks]
    for curve in curves[1:]:
        assert curve.mean.tobytes() == curves[0].mean.tobytes()
        assert curve.stderr.tobytes() == curves[0].stderr.tobytes()


@pytest.mark.parametrize("parallelism,pools", [(2, 1), (1, 0)])
def test_one_pool_per_call(opened_pools, parallelism, pools):
    specs = (
        PolicySpec("ucb"),
        PolicySpec("moss-anytime"),
        PolicySpec("klucb-anytime"),
        PolicySpec("klucb-switch-anytime"),
        PolicySpec("imed"),
    )
    # 5 policies x 140 runs x 3 arms: 2,100 cells, two floor-wide batch chunks
    scenario = Scenario(bandit=BERN3, horizon=50, policies=specs, runs=140, base_seed=4)
    curve = monte_carlo(scenario, parallelism=parallelism)
    assert len(opened_pools) == pools
    assert all(width <= parallelism for width in opened_pools)
    assert curve.engines == ("vector",) * 5
    assert curve.chunks == (parallelism,) * 5


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


def test_default_record_grid_runs_from_k_to_the_horizon():
    # np.geomspace sets both endpoints exactly, so the rounded grid starts
    # at K, ends at T and, once merged, strictly increases
    for k in range(1, 65):
        for horizon in {k, k + 1, k + 2, 2 * k, 3 * k + 1, 50 * k} | {t for t in (100, 999, 10**4, 123_457, 10**6) if t >= k}:
            grid = np.array(default_record_grid(k, horizon))
            assert grid[0] == k and grid[-1] == horizon and np.all(np.diff(grid) > 0), (k, horizon)


def test_duplicate_policy_names_are_rejected_when_the_scenario_is_built():
    for roster in ((PolicySpec("ucb"), PolicySpec("ucb")), (PolicySpec("ucb", label="a"), PolicySpec("imed", label="a"))):
        with pytest.raises(ConfigurationError, match="duplicate policy names"):
            Scenario(bandit=BERN3, horizon=10, policies=roster, runs=1, base_seed=1)


@pytest.mark.parametrize("grid", [(2.5, 5), (2.0, 5), (True, 5), (0, 5), (None, 5)], ids=["2.5", "2.0", "True", "0", "None"])
def test_record_grid_entries_are_positive_integers(grid):
    # a float or a bool is no step, even one that equals an integer
    with pytest.raises(ConfigurationError, match="record_grid entry"):
        Scenario(bandit=BERN3, horizon=10, policies=(PolicySpec("ucb"),), runs=1, base_seed=1, record_grid=grid)


def test_record_grid_entries_are_read_as_integers_like_the_horizon():
    scenario = Scenario(bandit=BERN3, horizon=10, policies=(PolicySpec("ucb"),), runs=1, base_seed=1, record_grid=("3", np.int64(5)))
    assert scenario.record_grid == (3, 5) and all(type(t) is int for t in scenario.record_grid)
    assert monte_carlo(scenario).grid.tolist() == [3, 5]


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


def test_mix64_array_equals_the_scalar_hash_and_leaves_its_input_alone():
    rng = np.random.default_rng(64)
    keys = np.concatenate([np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64), rng.integers(0, 2**64, 200, dtype=np.uint64)])
    before = keys.copy()
    mixed = mix64_array(keys)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix64(key) for key in keys.tolist()]
    assert keys.tobytes() == before.tobytes()


@pytest.mark.parametrize("seed", [-5, -(2**63), 0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70 + 3])
def test_array_derived_seeds_equal_the_scalar_chain(seed):
    # negative and >= 2^64 seeds count mod 2^64, and paths at or past 2^63
    # wrap in uint64 as they are masked in Python integers
    paths = [0, 3, -1, 2**63, 2**64 + 7]
    keys = derive_key(seed, 0, np.arange(1000))
    assert keys.dtype == np.uint64
    assert keys.tolist() == [oracles.derive_key(seed, 0, r) for r in range(1000)]
    for p in paths:
        assert derive_key(seed, p, 2**63 + 1).tolist() == [oracles.derive_key(seed, p, 2**63 + 1)]
        assert run_seed(seed, p, -3) == oracles.derive_key(seed, p, -3)
    grid = derive_key(seed, np.array([0, 1, 4])[:, None], np.arange(5))  # monte_carlo's (policy, run) block
    assert grid.ravel().tolist() == [oracles.derive_key(seed, p, r) for p in (0, 1, 4) for r in range(5)]


@pytest.mark.parametrize("hash_block", [mix64_array, lambda keys: unit_uniform_array(keys, 7, CH_REWARD)])
def test_hashing_a_block_holds_about_two_outputs(hash_block):
    # one array plus one shift temporary is 2x the output; a chain of
    # out-of-place steps holds 3x
    keys = np.random.default_rng(65).integers(0, 2**64, 10_000, dtype=np.uint64)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = hash_block(keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes


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


FIG1_LEFT = BanditInstance((Bernoulli(0.9), Bernoulli(0.8)))
SWITCH_8_9 = PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)


@pytest.mark.parametrize(
    "bandit,spec,seed",
    [
        # step 7, counts (1, 4, 1), sums (0, 2, 0): the two KL-branch arms at
        # mean 0 have index 1 - e^-ln2 = 1/2, tied with the MOSS-branch arm
        pytest.param(BERN_TIED, SWITCH_8_9, run_seed(8, 0, 1), id="switch-one-atom-at-zero"),
        # step 13, counts (3, 9), sums (1, 6): the KL-branch index kl^-1(1/3, ln2/3)
        # is exactly 2/3, the MOSS-branch arm's index
        pytest.param(FIG1_LEFT, SWITCH_8_9, run_seed(3, 3, 48), id="switch-kl-branch-tie"),
        # step 10, counts (6, 3), sums (4, 1): 3 kl(1/3, 2/3) + ln 3 is exactly
        # ln 6, the leader's score
        pytest.param(FIG1_LEFT, PolicySpec("imed"), run_seed(4, 4, 160), id="imed-tie"),
        # the same two tie states, reached by runs of the fig1-left roster
        # (base seeds 135 and 271, switch and imed rows)
        pytest.param(FIG1_LEFT, SWITCH_8_9, run_seed(135, 3, 75), id="switch-kl-branch-tie-roster"),
        pytest.param(FIG1_LEFT, PolicySpec("imed"), run_seed(271, 4, 141), id="imed-tie-roster"),
    ],
)
def test_vector_engine_replays_scalar_runs_at_exact_ties(bandit, spec, seed):
    horizon = 60
    _, actions = _vector.simulate(bandit, spec, horizon, [seed], tuple(range(1, horizon + 1)), record_actions=True)
    assert np.array_equal(run_episode(bandit, spec, horizon, seed).actions, actions[0])


BINARY_ARMS = st.one_of(
    st.integers(0, 10).map(lambda i: Bernoulli(i / 10)),
    st.sampled_from((Dirac(0.0), Dirac(1.0))),
    st.integers(0, 10).map(lambda i: Discrete((0.0, 1.0), (1.0 - i / 10, i / 10))),
)
BINARY_FAMILIES = ("klucb", "klucb-anytime", "klucb-switch", "klucb-switch-anytime", "imed")


@given(
    arms=st.lists(BINARY_ARMS, min_size=2, max_size=4),
    family=st.sampled_from(BINARY_FAMILIES),
    exponent=st.sampled_from((0.2, 8.0 / 9.0)),
    horizon=st.integers(4, 80),
    bins=st.sampled_from((None, 10)),
    seed=st.integers(0, 2**64 - 1),
)
@example(arms=list(FIG1_LEFT.arms), family=SWITCH_8_9.family, exponent=8.0 / 9.0, horizon=60, bins=None, seed=run_seed(3, 3, 48))
@example(arms=list(FIG1_LEFT.arms), family="imed", exponent=0.2, horizon=60, bins=None, seed=run_seed(4, 4, 160))
def test_vector_engine_replays_scalar_runs_on_binary_arms(arms, family, exponent, horizon, bins, seed):
    # on arms supported on {0, 1}, the scalar reference (empirical laws,
    # atoms rounded to ``bins``) takes the vector engine's every action
    bandit = BanditInstance(tuple(arms))
    spec = PolicySpec(
        family,
        horizon=horizon if family in _NEEDS_HORIZON else None,
        switch_exponent=exponent if "switch_exponent" in _READS[family] else 0.2,
    )
    _, actions = _vector.simulate(bandit, spec, horizon, [seed], tuple(range(1, horizon + 1)), record_actions=True)
    assert np.array_equal(run_episode(bandit, spec, horizon, seed, bins=bins).actions, actions[0])


def assert_replays_the_scalar_reference(bandit, spec, horizon, seeds, bins=None):
    for sd in seeds:
        ep = run_episode(bandit, spec, horizon, sd, bins=bins)
        trajectory, pulls, actions = scalar_episode(bandit, spec, horizon, sd, bins=bins)
        assert ep.actions.tobytes() == actions.tobytes(), f"seed {sd}: actions differ"
        assert ep.trajectory.tobytes() == trajectory.tobytes(), f"seed {sd}: trajectories differ"
        assert ep.pulls.tolist() == pulls.tolist()


TRUNC_GAUSS = BanditInstance(tuple(TruncatedGaussian(m, 0.1) for m in (0.7, 0.5, 0.3)))
TRUNC_EXP = BanditInstance(tuple(TruncatedExponential(m) for m in (0.15, 0.10, 0.05)))
EMPIRICAL_FAMILIES = (PolicySpec("klucb-anytime"), SWITCH_8_9, PolicySpec("imed"))


@pytest.mark.parametrize("bins", [None, 20, 50], ids=["exact", "bins20", "bins50"])
@pytest.mark.parametrize("spec", EMPIRICAL_FAMILIES, ids=lambda spec: spec.family)
@pytest.mark.parametrize("bandit", [TRUNC_GAUSS, TRUNC_EXP], ids=["truncgauss", "truncexp"])
def test_run_episode_replays_the_scalar_reference_on_continuous_arms(bandit, spec, bins):
    # the reference rounds each reward by Python's round, the loop a step's
    # rewards at once by np.round
    assert_replays_the_scalar_reference(bandit, spec, 150, [run_seed(41, 0, r) for r in range(2)], bins)


@pytest.mark.parametrize("family,kwargs", BERN_FAMILIES)
def test_run_episode_replays_the_scalar_reference_on_bernoulli_arms(family, kwargs):
    assert_replays_the_scalar_reference(BERN3, PolicySpec(family, **kwargs), 250, [run_seed(31_337, 0, r) for r in range(2)])


HALF_GRID = BanditInstance((Discrete((0.25, 0.75), (0.5, 0.5)), Bernoulli(0.4)))


def record_pushes(monkeypatch) -> list:
    """The list that every value pushed into an empirical distribution is
    appended to from now on."""
    pushed, push = [], EmpiricalDistribution._push
    monkeypatch.setattr(EmpiricalDistribution, "_push", lambda self, x: pushed.append(x) or push(self, x))
    return pushed


@pytest.mark.parametrize("spec", EMPIRICAL_FAMILIES, ids=lambda spec: spec.family)
def test_half_grid_rewards_round_to_even_in_the_loop(monkeypatch, spec):
    # at bins = 2 the rewards 0.25 and 0.75 sit on ties, 0.5 and 1.5 on the
    # grid's scale, and round half to even to 0 and 1: the arm's law lies on
    # {0, 1}, so it takes the Bernoulli route on the mean of the rounded
    # rewards, not on s/n
    pushed = record_pushes(monkeypatch)
    assert_replays_the_scalar_reference(HALF_GRID, spec, 120, [run_seed(17, 0, r) for r in range(3)], 2)
    assert set(pushed) == {0.0, 1.0}


@pytest.mark.parametrize("bins", [2.5, math.nan, True, 0, -3, "abc"], ids=repr)
def test_bins_must_be_a_positive_integer(monkeypatch, bins):
    # bins = 2.5 would put the reward 1 at the atom 0.8, off the grid {0, 1/bins, ..., 1}
    spec = PolicySpec("klucb-anytime")
    with pytest.raises(ConfigurationError, match="bins must be an integer"):
        run_episode(TRUNC_GAUSS, spec, 10, seed=1, bins=bins)
    with pytest.raises(ConfigurationError, match="bins must be an integer"):
        _vector.simulate(TRUNC_GAUSS, spec, 10, [1], (10,), empirical=True, bins=bins)
    # a decimal string is read as the integer it spells
    pushed = record_pushes(monkeypatch)
    actions = run_episode(TRUNC_GAUSS, spec, 40, seed=1, bins="5").actions
    assert actions.tobytes() == scalar_episode(TRUNC_GAUSS, spec, 40, 1, bins=5)[2].tobytes()
    assert set(pushed) <= {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}


@pytest.mark.parametrize("bins", [None, 20], ids=["exact", "bins20"])
@pytest.mark.parametrize(
    "spec",
    [*EMPIRICAL_FAMILIES, EMPIRICAL_FAMILIES],
    ids=lambda spec: "three-blocks" if isinstance(spec, tuple) else spec.family,
)
def test_empirical_batch_equals_its_runs_one_at_a_time(spec, bins):
    # each (run, arm) cell's distribution is found by its flat arm-major
    # index; in a batch of several policies, each block lists its own
    # cells' distributions in its own arm-major order
    specs = spec if isinstance(spec, tuple) else (spec,)
    horizon = 120
    seeds = [run_seed(5, 0, r) for r in range(3 * len(specs))]
    grid = tuple(range(1, horizon + 1))
    kw = dict(record_actions=True, empirical=True, bins=bins)
    regrets, actions = _vector.simulate(TRUNC_GAUSS, specs, horizon, seeds, grid, **kw)
    for r, sd in enumerate(seeds):
        alone = specs[r // 3]
        one, one_actions = _vector.simulate(TRUNC_GAUSS, alone, horizon, [sd], grid, **kw)
        assert one_actions[0].tobytes() == actions[r].tobytes(), f"run {r} ({alone.family}): actions differ"
        assert one[0].tobytes() == regrets[r].tobytes(), f"run {r} ({alone.family}): regrets differ"


def _roster(horizon):
    # every vector family and option: imed, ucb, the known-horizon trio,
    # augmented_phi, both switch exponents
    return (
        PolicySpec("imed"),
        PolicySpec("ucb"),
        PolicySpec("klucb", horizon=horizon),
        PolicySpec("klucb-switch", horizon=horizon),
        PolicySpec("moss", horizon=horizon),
        PolicySpec("klucb-anytime", exploration="augmented_phi"),
        PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0, label="switch-8/9"),
        PolicySpec("klucb-switch-anytime", exploration="augmented_phi", label="switch-0.2"),
        PolicySpec("moss-anytime", exploration="augmented_phi"),
    )


def _bernoulli(k):
    return BanditInstance(tuple(Bernoulli(p) for p in np.linspace(0.8, 0.3, k)))


# three scalar-engine policies, one lock-step batch on continuous and discrete arms
SCALAR_ROSTER = (PolicySpec("klucb-anytime"), PolicySpec("klucb-switch-anytime"), PolicySpec("imed"))
GAUSS_DISCRETE = BanditInstance(TRUNC_GAUSS.arms + (Discrete((0.1, 0.45, 0.9), (0.3, 0.4, 0.3)),))
CONTINUOUS_ROSTER = (
    PolicySpec("klucb-gauss", sigma=0.2),
    PolicySpec("klucb-exp", horizon=40),
    PolicySpec("klucb-exp", exploration="augmented_phi", label="klucb-exp-anytime"),
    PolicySpec("moss", horizon=40),
    PolicySpec("klucb-anytime"),  # no exact vector form on continuous arms: scalar engine
    PolicySpec("ucb"),
)


@pytest.mark.parametrize(
    "bandit,roster,runs,horizon,bins",
    [
        (FIG1_LEFT, _roster(60), 200, 60, None),
        (BERN3, _roster(40), 1, 40, None),
        (_bernoulli(10), _roster(50), 7, 50, None),
        (_bernoulli(50), _roster(70), 7, 70, None),
        (TRUNC_GAUSS, CONTINUOUS_ROSTER, 7, 40, None),
        (GAUSS_DISCRETE, SCALAR_ROSTER, 7, 40, None),
        (GAUSS_DISCRETE, SCALAR_ROSTER, 7, 40, 20),
    ],
    ids=["k2-runs200", "k3-runs1", "k10-runs7", "k50-runs7", "continuous-k3-runs7", "scalar-trio-exact", "scalar-trio-bins20"],
)
def test_roster_batch_equals_each_policy_alone(monkeypatch, bandit, roster, runs, horizon, bins):
    # the lock-step batch keeps every (policy, run) bit of a one-policy
    # simulation, whatever the roster around it, the parallelism and the cut
    from bandit_switch import simulator

    scenario = Scenario(bandit=bandit, horizon=horizon, policies=roster, runs=runs, base_seed=303, bins=bins)
    grid = scenario.record_grid
    curves = [monte_carlo(scenario, parallelism=p) for p in (1, 2, 3)]
    scalar = curves[0].engines.count("scalar")
    if scalar:
        # a budget of two runs of the scalar batch cuts its 7 runs into
        # ceil(7 / 2) = 4 chunks, more than the workers
        monkeypatch.setattr(simulator, "_ATOM_BUDGET", scalar * 2 * horizon * 16)
        cut = [monte_carlo(scenario, parallelism=p) for p in (1, 2, 3)]
        assert all(n == 4 for c in cut for n, e in zip(c.chunks, c.engines) if e == "scalar")
        curves += cut
    for p_idx, spec in enumerate(roster):
        seeds = [run_seed(303, p_idx, r) for r in range(runs)]
        if curves[0].engines[p_idx] == "vector":
            rows = _vector.simulate(bandit, spec, horizon, seeds, grid)
        else:
            rows = np.vstack([run_episode(bandit, spec, horizon, sd, bins).trajectory[np.asarray(grid) - 1] for sd in seeds])
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(len(grid))
        for curve in curves:
            assert curve.mean[p_idx].tobytes() == rows.mean(axis=0).tobytes(), spec.name
            assert curve.stderr[p_idx].tobytes() == stderr.tobytes(), spec.name
    assert scalar == {CONTINUOUS_ROSTER: 1, SCALAR_ROSTER: 3}.get(roster, 0)


@pytest.mark.parametrize("budget", [None, 5 * 3 * 40 * 16], ids=["default-budget", "five-rows-at-T40"])
def test_empirical_chunks_fit_the_atom_budget_and_cover_the_workers(monkeypatch, budget):
    # monte_carlo gives chunk i of n the runs [runs i // n, runs (i + 1) // n),
    # at most ceil(runs / n) of them, so policies * ceil(runs / n) rows
    from bandit_switch import simulator

    if budget is not None:
        monkeypatch.setattr(simulator, "_ATOM_BUDGET", budget)
    budget = simulator._ATOM_BUDGET
    for runs, policies, horizon, parallelism in itertools.product((1, 2, 7, 64, 1000), (1, 3), (40, 10_000, 10**6), (1, 2, 3)):
        n = simulator._chunk_count(runs, policies, 4, horizon, parallelism, "scalar")
        rows = policies * -(-runs // n)
        assert min(parallelism, runs) <= n <= runs
        # every chunk within the budget, unless one run of the batch alone exceeds it
        assert rows <= max(policies, budget // (horizon * 16)), (runs, policies, horizon, parallelism)
        # and no more chunks than the budget and the workers ask for
        assert n == runs or n == parallelism or policies * -(-runs // (n - 1)) > budget // (horizon * 16)


def test_simulate_rejects_seeds_that_do_not_split_into_equal_blocks():
    specs = (PolicySpec("ucb"), PolicySpec("moss-anytime"))
    seeds = [run_seed(1, 0, r) for r in range(3)]
    with pytest.raises(ValueError, match="equal blocks"):
        _vector.simulate(BERN3, specs, 10, seeds, (10,))
