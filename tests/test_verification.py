"""Bound checkers at unit scale: constants, special functions, and
small-sample runs of each Monte-Carlo checker."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bandit_switch import BanditInstance, Bernoulli, ConfigurationError, EmpiricalDistribution, PolicySpec, TruncatedGaussian
from bandit_switch import _vector
from bandit_switch.kinf import bernoulli_kl, kinf_weighted
from bandit_switch.simulator import run_seed
from bandit_switch.verification import (
    BOUND_IDS,
    _binary_empirical,
    _MIN_POOLED_LAWS,
    _block_bounds,
    _checkpoint_states,
    _grid_max,
    _grid_points,
    _interval_bounds,
    _oracle_jobs,
    SUITES,
    concentration_gamma,
    gamma_floor_check,
    hoeffding_integrated_check,
    hoeffding_max_check,
    index_ordering_check,
    kinf_concentration_check,
    kinf_deviation_check,
    kinf_grid_oracle_check,
    kinf_integrated_deviation_check,
    lambert_residual_check,
    lambert_w,
    run_suite,
    theoretical_bounds,
)
from oracles import grid_max, replay_checkpoints


# ---------------------------------------------------------------------------
# closed-form constants


def test_theoretical_bounds_values():
    assert theoretical_bounds(2, 10_000, "switch-known-horizon") == pytest.approx(3253.69, abs=0.01)
    assert theoretical_bounds(2, 10_000, "moss") == pytest.approx(2405.16, abs=0.01)
    assert theoretical_bounds(2, 10_000, "switch-anytime") == pytest.approx(1 + 44 * math.sqrt(20_000), abs=1e-9)
    assert theoretical_bounds(2, 10_000, "minimax-lower") == pytest.approx(7.0711, abs=1e-4)
    assert theoretical_bounds(3, 2, "minimax-lower") == pytest.approx(0.1, abs=1e-12)  # min(sqrt(KT), T)/20
    with pytest.raises(ValueError):
        theoretical_bounds(2, 100, "no-such-bound")
    for bound_id in BOUND_IDS:
        assert theoretical_bounds(2, 100, bound_id) > 0


# ---------------------------------------------------------------------------
# Lambert W


def test_lambert_w_fixed_points():
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)
    # oracle: Newton on w e^w = 1 gives the omega constant
    w = 0.5
    for _ in range(60):
        w -= (w * math.exp(w) - 1.0) / (math.exp(w) * (w + 1.0))
    assert lambert_w(1.0) == pytest.approx(w, abs=1e-12)
    assert lambert_w(1.0) == pytest.approx(0.567143, abs=1e-6)


def test_lambert_w_sandwich_at_e_cubed():
    x = math.e**3
    lo = 3.0 - math.log(3.0)
    hi = lo + math.log(1.0 + math.exp(-1.0))
    assert lo <= lambert_w(x) <= hi
    assert lambert_w(x) == pytest.approx(2.2079, abs=1e-3)


def test_lambert_w_residual_grid_and_domain():
    for x in np.geomspace(1e-3, 1e9, 40):
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-10 * x
    with pytest.raises(ValueError):
        lambert_w(0.0)
    report = lambert_residual_check()
    assert report.ok


# ---------------------------------------------------------------------------
# gamma


def test_concentration_gamma_value_and_floor():
    expected = (16.0 * math.exp(-2.0) + math.log(2.0) ** 2) / math.sqrt(0.5)
    assert concentration_gamma(0.5) == pytest.approx(expected, abs=1e-12)
    report = gamma_floor_check()
    assert report.ok
    assert all(p.bound >= 2.0 for p in report.points)


def test_refined_pull_rate_sharpens_the_log_rate():
    from bandit_switch.verification import refined_pull_rate

    div = bernoulli_kl(0.8, 0.9)
    for horizon in (1000, 10_000, 100_000):
        refined = refined_pull_rate(2, horizon, 0.9, div)
        plain = math.log(horizon) / div
        assert 0.0 < refined < plain
        # the sharpening is roughly ln ln T / div
        assert plain - refined == pytest.approx(math.log(math.log(horizon)) / div, rel=0.6)
    with pytest.raises(ValueError):
        refined_pull_rate(2, 100, 1.0, div)


# ---------------------------------------------------------------------------
# deviation / concentration checkers (small scale)


def test_deviation_bound_arithmetic():
    report = kinf_deviation_check(Bernoulli(0.5), 10, (0.0, 0.5), 2000, seed=1)
    by_label = {p.label: p for p in report.points}
    assert by_label["n=10,u=0.5"].bound == pytest.approx(math.e * 21 * math.exp(-5.0), abs=1e-12)
    assert by_label["n=10,u=0.5"].bound == pytest.approx(0.38463, abs=1e-4)
    # u = 0 bound is at least 1, so it can never be violated
    assert by_label["n=10,u=0"].bound >= 1.0
    assert not by_label["n=10,u=0"].violation
    assert report.ok


def test_deviation_large_n_bound_is_tiny_and_holds():
    report = kinf_deviation_check(Bernoulli(0.5), 200, (0.1,), 10_000, seed=2)
    (point,) = report.points
    assert point.bound == pytest.approx(math.e * 401 * math.exp(-20.0), rel=1e-9)
    assert point.bound < 3e-6
    assert point.empirical == 0.0
    assert report.ok


def test_deviation_checker_general_arm_path():
    report = kinf_deviation_check(TruncatedGaussian(0.6, 0.2), 8, (0.1, 0.4), 400, seed=3)
    assert report.ok


def test_deviation_checker_rejects_degenerate_mean():
    with pytest.raises(ValueError):
        kinf_deviation_check(Bernoulli(1.0), 5, (0.1,), 10, seed=1)


def test_integrated_deviation_small_run():
    report = kinf_integrated_deviation_check(Bernoulli(0.5), 5, (0.05, 0.2), 4000, seed=4)
    assert report.ok


def test_concentration_checker_and_true_divergence():
    report = kinf_concentration_check(Bernoulli(0.2), 0.5, (20,), 5000, seed=5)
    assert report.values["k_true"] == pytest.approx(bernoulli_kl(0.2, 0.5), abs=1e-9)
    assert report.values["k_true"] == pytest.approx(0.19274, abs=1e-5)
    assert report.values["gamma"] == pytest.approx(concentration_gamma(0.5), abs=1e-12)
    assert report.ok
    with pytest.raises(ValueError):
        kinf_concentration_check(Bernoulli(0.6), 0.5, (10,), 10, seed=1)
    with pytest.raises(ValueError):
        kinf_concentration_check(TruncatedGaussian(0.3, 0.1), 0.5, (10,), 10, seed=1)


def test_hoeffding_checkers():
    report = hoeffding_max_check(Bernoulli(0.5), 20, (0.0, 0.3), 4000, seed=6)
    by_label = {p.label: p for p in report.points}
    assert by_label["N=20,u=0.3"].bound == pytest.approx(math.exp(-3.6), abs=1e-12)
    assert by_label["N=20,u=0"].bound == 1.0
    assert report.ok
    integrated = hoeffding_integrated_check(Bernoulli(0.5), 20, (0.0, 0.1), 4000, seed=7)
    assert integrated.ok


def test_index_ordering_small():
    report = index_ordering_check(runs=10, checkpoints_per_run=5, horizon=200)
    assert report.ok
    assert report.values["checkpoints"] == 50


def ordering_specs(horizon: int) -> list:
    """The six indices the ordering check compares: the known-horizon trio
    and the anytime trio."""
    known = [PolicySpec(family, horizon=horizon) for family in ("klucb", "klucb-switch", "moss")]
    return known + [PolicySpec(family) for family in ("klucb-anytime", "klucb-switch-anytime", "moss-anytime")]


def assert_checkpoints_equal_the_replay(bandit, seeds, actions, steps) -> int:
    """Every rebuilt (n, s, dists) and every index vector of the six
    specs, evaluated on the whole batch, equals the per-step replay's bit
    for bit; returns the number of one-atom laws of n >= 2 observations.
    Run r's law of arm a is at a * runs + r, in the state's arm-major order."""
    specs = ordering_specs(actions.shape[1])
    rebuilt = {
        step: (n, s, dists, [_vector._indices(_vector._Ctx(spec), n, s, step, dists) for spec in specs])
        for step, n, s, dists in _checkpoint_states(bandit, seeds, actions, steps)
    }
    assert sorted(rebuilt) == sorted(int(step) for step in steps)
    seen = one_atom = 0
    for r, step, counts, sums, dists, vectors in replay_checkpoints(bandit, seeds, actions, steps, specs):
        n, s, rebuilt_dists, rebuilt_vectors = rebuilt[step]
        assert n[r].tobytes() == counts.tobytes()
        assert s[r].tobytes() == sums.tobytes()
        for a, want in enumerate(dists):
            got = rebuilt_dists[a * len(seeds) + r]
            assert got == want and got.mean == want.mean and got.weights.tobytes() == want.weights.tobytes()
            one_atom += len(got) == 1 and got.total_count >= 2
        for spec, got, want in zip(specs, rebuilt_vectors, vectors):
            assert got[r].tobytes() == want.tobytes(), (spec.family, r, step)
        seen += 1
    assert seen == len(seeds) * len(steps)
    return one_atom


@pytest.mark.parametrize("base_seed", [20_240_103, 1, 977])
def test_checkpoint_states_of_the_ordering_runs_equal_the_replay(base_seed):
    bandit = BanditInstance((Bernoulli(0.8), Bernoulli(0.6), Bernoulli(0.4)))
    driver = PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)
    seeds = [run_seed(base_seed, 0, r) for r in range(6)]
    _, actions = _vector.simulate(bandit, driver, 600, seeds, (600,), record_actions=True)
    steps = np.array([4, 6, 10, 17, 30, 51, 87, 150, 257, 440, 600])
    assert_checkpoints_equal_the_replay(bandit, seeds, actions, steps)


def test_checkpoint_states_equal_the_replay_on_one_atom_laws():
    # arms near 0 and 1 under random actions: many cells hold s = 0 or s = n
    bandit = BanditInstance((Bernoulli(0.97), Bernoulli(0.5), Bernoulli(0.03), Bernoulli(1.0)))
    rng = np.random.default_rng(5)
    actions = rng.integers(0, bandit.k, size=(5, 300)).astype(np.int32)
    actions[:, : bandit.k] = np.arange(bandit.k)
    seeds = [run_seed(7, 0, r) for r in range(5)]
    assert assert_checkpoints_equal_the_replay(bandit, seeds, actions, np.array([5, 12, 40, 300])) >= 20


def test_checkpoint_states_need_binary_arms():
    bandit = BanditInstance((Bernoulli(0.5), TruncatedGaussian(0.5, 0.1)))
    actions = np.zeros((1, 4), dtype=np.int32)
    with pytest.raises(ValueError, match="supported on"):
        next(_checkpoint_states(bandit, [1], actions, [4]))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_binary_empirical_is_the_law_of_pushed_ones(n):
    for c in range(n + 1):
        pushed = EmpiricalDistribution.from_observations([1.0] * c + [0.0] * (n - c))
        law = _binary_empirical(n, c)
        assert law == pushed and law.mean == pushed.mean


# ---------------------------------------------------------------------------
# grid oracle


@pytest.mark.parametrize("bad", [0, -3, 1.5, "abc", True])
def test_grid_oracle_rejects_bad_parallelism(bad):
    with pytest.raises(ConfigurationError, match="parallelism"):
        kinf_grid_oracle_check(n_dists=3, grid_points=1000, parallelism=bad)


def test_grid_oracle_does_not_depend_on_parallelism(opened_pools):
    # one law below the pool threshold, every job runs in the calling
    # process; at it, parallelism 2 starts one pool of 2 workers
    for n_dists, pools in ((_MIN_POOLED_LAWS - 1, []), (_MIN_POOLED_LAWS, [2])):
        opened_pools.clear()
        serial = kinf_grid_oracle_check(n_dists=n_dists, grid_points=100_000, parallelism=1)
        pooled = kinf_grid_oracle_check(n_dists=n_dists, grid_points=100_000, parallelism=2)
        assert opened_pools == pools
        assert serial.ok
        assert serial.values == pooled.values
        assert serial.points[0].label == pooled.points[0].label
        assert serial.notes == pooled.notes


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 131_073, 1_000_000])
def test_grid_points_equal_linspace_bit_for_bit(n):
    want = np.linspace(0.0, 1.0, n)
    assert _grid_points(np.arange(n), n).tobytes() == want.tobytes()
    # the first, a middle and the last (ragged) block of row counts that
    # divide no grid size here
    for rows in (7, 6_553, 65_536):
        for lo in {0, rows * (n // (2 * rows)), rows * ((n - 1) // rows)}:
            assert _grid_points(np.arange(lo, min(lo + rows, n)), n).tobytes() == want[lo : lo + rows].tobytes()
    # a 2-d pick of indices, as the block bounds take their sub-block ends
    idx = np.random.default_rng(n).integers(0, n, size=(5, 16))
    idx[-1, -1] = n - 1
    assert _grid_points(idx, n).tobytes() == want[idx].tobytes()


def test_grid_oracle_of_one_point_takes_lambda_0():
    report = kinf_grid_oracle_check(n_dists=3, grid_points=1, parallelism=1)
    assert report.values["worst_gap"] > 0.0 and report.values["blocks_total"] == 3
    assert report.notes == "1-point uniform lambda grid; 3 of 3 blocks evaluated"


def test_grid_oracle_reports_the_blocks_it_evaluated():
    report = kinf_grid_oracle_check(n_dists=16, grid_points=1_000_000, parallelism=1)
    evaluated, total = report.values["blocks_evaluated"], report.values["blocks_total"]
    assert 16 <= evaluated < total
    assert report.notes == f"1000000-point uniform lambda grid; {evaluated} of {total} blocks evaluated"


def _oracle_laws(n_dists):
    return [(EmpiricalDistribution(values, counts), mu) for _, values, counts, mu in _oracle_jobs(n_dists, 20_240_101)]


def test_grid_oracle_maximum_equals_the_exhaustive_scan_on_the_c1_laws():
    # on about 2 % of these laws the block with the highest bound does not
    # hold the maximum, so stopping too early shows here
    lam_grid = np.linspace(0.0, 1.0, 100_000)
    differ = [
        i
        for i, (dist, mu) in enumerate(_oracle_laws(500))
        if _grid_max(dist, mu, lam_grid.size)[0].hex() != grid_max(dist, mu, lam_grid).hex()
    ]
    assert differ == []


_FLAT = EmpiricalDistribution([0.1, 0.6, 0.8], [3, 1, 2])
_EDGE_LAWS = [
    ("one atom", EmpiricalDistribution([0.3], [4]), 0.6),
    ("one atom at mu", EmpiricalDistribution([0.5], [1]), 0.5),
    ("atoms at 0 and 1", EmpiricalDistribution([0.0, 1.0], [3, 2]), 0.7),
    ("atoms at 0, 1 and inside", EmpiricalDistribution([0.0, 0.4, 1.0], [1, 5, 1]), 0.45),
    ("an atom at mu", EmpiricalDistribution([0.2, 0.5, 0.9], [2, 1, 3]), 0.5),
    ("mu = 0.999", EmpiricalDistribution([0.1, 0.5, 0.998], [1, 2, 7]), 0.999),
    ("mu = 0.999, atom at 1", EmpiricalDistribution([0.0, 1.0], [1, 9]), 0.999),
    ("mu just above the mean", _FLAT, _FLAT.mean + 1e-9),
    ("mu below the mean", _FLAT, _FLAT.mean - 0.05),
]
# 131_073 points in 65_536-row blocks (two atoms): the last block is lam = 1 alone
_EDGE_GRIDS = (100_000, 131_073, 1_000_000)


@pytest.mark.parametrize(
    "dist,mu,grid_points",
    [(dist, mu, 1_000_000) for dist, mu in _oracle_laws(16)]
    + [(dist, mu, n) for _, dist, mu in _EDGE_LAWS for n in _EDGE_GRIDS],
    ids=[f"verify-solver-law-{i}" for i in range(16)]
    + [f"{name}-{n}" for name, _, _ in _EDGE_LAWS for n in _EDGE_GRIDS],
)
def test_grid_oracle_maximum_equals_the_exhaustive_scan(dist, mu, grid_points):
    lam_grid = np.linspace(0.0, 1.0, grid_points)
    best, evaluated, total = _grid_max(dist, mu, grid_points)
    assert best.hex() == grid_max(dist, mu, lam_grid).hex()
    assert 1 <= evaluated <= total


laws = st.lists(
    st.tuples(st.floats(0.0, 1.0, allow_subnormal=False), st.integers(1, 10)),
    min_size=1,
    max_size=20,
    unique_by=lambda atom: atom[0],
).map(lambda atoms: EmpiricalDistribution(*zip(*sorted(atoms))))


@given(dist=laws, mu=st.floats(1e-3, 0.999), grid_points=st.integers(2, 5_000), data=st.data())
def test_grid_values_are_bounded_by_the_interval_end_bound(dist, mu, grid_points, data):
    lo = data.draw(st.integers(0, grid_points - 1))
    hi = data.draw(st.integers(lo, grid_points - 1))
    lam = np.linspace(0.0, 1.0, grid_points)
    z = (dist.values - mu) / (1.0 - mu)
    w = dist.weights
    with np.errstate(divide="ignore"):
        values = np.log1p(np.multiply.outer(lam[lo : hi + 1], -z)) @ w
        bound = _interval_bounds(z, w, lam[[lo]], lam[[hi]])[0]
    assert values.max() <= bound + 1e-12


@pytest.mark.parametrize("parallelism,pools", [(2, 1), (1, 0)])
def test_kinf_oracle_suite_passes_parallelism(opened_pools, parallelism, pools):
    # at the pool threshold's law count, parallelism 2 starts one pool
    reports = run_suite("kinf-oracle", runs=_MIN_POOLED_LAWS, parallelism=parallelism)
    assert all(report.ok for report in reports)
    assert len(opened_pools) == pools
    assert all(width <= parallelism for width in opened_pools)


# ---------------------------------------------------------------------------
# suites


def test_run_suite_names():
    assert "all" in SUITES
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_deviation_suite_names_are_unique_and_match_c4_draws():
    reports = run_suite("deviation", runs=200)
    names = [r.bound_name for r in reports]
    assert len(set(names)) == len(names)
    bernoulli = [r for r in reports if r.bound_name.startswith("kinf-deviation[")]
    # the arms, grid and seeds of acceptance criterion C4
    u_grid = tuple(round(0.05 * i, 2) for i in range(1, 21))
    expected = [
        kinf_deviation_check(Bernoulli(p), n, u_grid, 200, seed=91_000 + n + int(p * 10))
        for p in (0.3, 0.5)
        for n in (10, 50)
    ]
    assert [r.bound_name for r in bernoulli] == [r.bound_name for r in expected]
    assert [r.points for r in bernoulli] == [r.points for r in expected]


def test_run_suite_smoke_lambert():
    reports = run_suite("lambert")
    assert len(reports) == 1
    assert reports[0].ok


@given(dist=laws, mu=st.floats(1e-3, 0.999), grid_points=st.integers(2, 2_000), rows=st.integers(1, 300))
def test_grid_values_are_bounded_by_their_block_bound(dist, mu, grid_points, rows):
    lam = np.linspace(0.0, 1.0, grid_points)
    z = (dist.values - mu) / (1.0 - mu)
    w = dist.weights
    with np.errstate(divide="ignore"):
        values = np.log1p(np.multiply.outer(lam, -z)) @ w
        bounds = _block_bounds(z, w, grid_points, rows)
    assert bounds.size == -(-grid_points // rows)
    assert np.all(values <= np.repeat(bounds, rows)[:grid_points] + 1e-12)
