"""Solver-level tests: dual objective, its derivative, the divergence
solver, the witness construction, and the index inversions.

Expected values are computed from independent oracles: direct formula
evaluation, central finite differences, dense grids, and the closed-form
stationary point for two-atom distributions.
"""

import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from bandit_switch import (
    BanditInstance,
    Bernoulli,
    EmpiricalDistribution,
    PolicySpec,
    bernoulli_kl,
    h_derivative,
    h_value,
    kinf,
    kinf_weighted,
    kinf_witness,
    klucb_index,
    run_seed,
)
from bandit_switch import _vector
from bandit_switch._vector import _newton_down, bern_klucb, exp_klucb
from bandit_switch.kinf import _INDEX_TOL, _Y_SATURATED, KinfResult
import oracles
from oracles import bern_kl_root_y, exp_kl_index


def random_dist(rng, max_atoms=20):
    n = int(rng.integers(1, max_atoms + 1))
    vals = np.unique(rng.random(n))
    counts = rng.integers(1, 11, size=vals.size)
    return EmpiricalDistribution(vals, counts)


# ---------------------------------------------------------------------------
# H and H'


def test_h_value_zero_lambda_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dist = random_dist(rng)
        assert h_value(dist, 0.4, 0.0) == 0.0


def test_h_value_point_mass_at_zero():
    # E[ln(1 - lam (0 - mu)/(1 - mu))] = ln(1 + lam mu/(1-mu)); at mu=.5, lam=1: ln 2
    d0 = EmpiricalDistribution([0.0], [1])
    assert h_value(d0, 0.5, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_h_value_atom_at_one_is_minus_inf_at_lambda_one():
    d1 = EmpiricalDistribution([1.0], [1])
    assert h_value(d1, 0.5, 1.0) == -math.inf


def test_h_value_domain_errors():
    d = EmpiricalDistribution([0.5], [1])
    with pytest.raises(ValueError):
        h_value(d, 0.0, 0.5)
    with pytest.raises(ValueError):
        h_value(d, 1.0, 0.5)
    with pytest.raises(ValueError):
        h_value(d, 0.5, 1.5)


def test_h_derivative_at_zero_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dist = random_dist(rng)
        mu = float(rng.uniform(0.05, 0.95))
        expected = -(dist.mean - mu) / (1.0 - mu)
        assert h_derivative(dist, mu, 0.0) == pytest.approx(expected, abs=1e-12)


def test_h_derivative_point_mass_at_zero_formula():
    # mu / (1 - mu + lam mu), positive for all lam
    d0 = EmpiricalDistribution([0.0], [1])
    for mu in (0.2, 0.5, 0.8):
        for lam in (0.0, 0.3, 0.7, 1.0):
            expected = mu / (1.0 - mu + lam * mu)
            assert h_derivative(d0, mu, lam) == pytest.approx(expected, rel=1e-12)
            assert h_derivative(d0, mu, lam) > 0.0


def test_h_derivative_sentinel_at_one_with_atom():
    d = EmpiricalDistribution([0.3, 1.0], [1, 1])
    assert h_derivative(d, 0.5, 1.0) == -math.inf


def test_h_derivative_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(50):
        dist = random_dist(rng)
        mu = float(rng.uniform(0.1, 0.9))
        lam = float(rng.uniform(0.1, 0.9))
        fd = (h_value(dist, mu, lam + h) - h_value(dist, mu, lam - h)) / (2.0 * h)
        assert abs(h_derivative(dist, mu, lam) - fd) <= 1e-5


# ---------------------------------------------------------------------------
# kinf solver


def test_kinf_zero_when_mean_reaches_mu():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dist = random_dist(rng)
        mu = dist.mean * 0.9
        if not 0.0 < mu < 1.0:
            continue
        res = kinf(dist, mu)
        assert res.value == 0.0
        assert res.lambda_star == 0.0
        assert res.converged


def test_kinf_bernoulli_oracle():
    # two equal atoms at 0 and 1 carry mean 1/2; the divergence to mean .7
    # must be the Bernoulli KL, cross-checked against a dense lambda grid
    dist = EmpiricalDistribution([0.0, 1.0], [1, 1])
    res = kinf(dist, 0.7)
    expected = bernoulli_kl(0.5, 0.7)
    assert res.value == pytest.approx(expected, abs=1e-9)
    lam = np.linspace(0.0, 1.0 - 1e-12, 1_000_001)
    z = (np.array([0.0, 1.0]) - 0.7) / 0.3
    grid = 0.5 * np.log1p(-np.outer(lam, z)).sum(axis=1)
    assert res.value == pytest.approx(float(grid.max()), abs=1e-6)


def test_kinf_point_mass_at_zero_closed_form():
    d0 = EmpiricalDistribution([0.0], [1])
    res = kinf(d0, 0.5)
    assert res.value == pytest.approx(-math.log(0.5), abs=1e-12)
    assert res.lambda_star == 1.0


def test_kinf_result_invariants_on_random_inputs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        dist = random_dist(rng)
        m = dist.mean
        if m >= 0.98:
            continue
        mu = float(rng.uniform(m, 0.99))
        res = kinf(dist, mu)
        assert res.converged
        assert res.value >= 0.0
        # Pinsker floor
        assert res.value >= 2.0 * (m - mu) ** 2 - 1e-9
        # optimality condition E[1/(1 - lam* z)] <= 1 + tol
        z = (dist.values - mu) / (1.0 - mu)
        expect_le_one = float(np.dot(dist.weights, 1.0 / (1.0 - res.lambda_star * z)))
        assert expect_le_one <= 1.0 + 1e-8


def test_kinf_two_atom_stationary_point_closed_form():
    # with two atoms the stationary point of the dual derivative is the
    # root of a linear equation: lam = E[z] / (z0 z1)
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = np.sort(rng.random(2))
        if v[1] - v[0] < 1e-3:
            continue
        c = rng.integers(1, 9, size=2)
        dist = EmpiricalDistribution(v, c)
        if dist.mean + 0.01 >= 0.99:
            continue
        mu = float(rng.uniform(dist.mean + 0.01, 0.99))
        z = (v - mu) / (1.0 - mu)
        lam_closed = (dist.weights @ z) / (z[0] * z[1])
        res = kinf(dist, mu)
        if 0.0 < lam_closed < 1.0:
            assert res.lambda_star == pytest.approx(lam_closed, abs=1e-7)


def test_kinf_concavity_of_objective():
    rng = np.random.default_rng(6)
    for _ in range(100):
        dist = random_dist(rng)
        mu = float(rng.uniform(0.1, 0.95))
        l1, l2, a = rng.uniform(0.0, 0.999, 3)
        mid = a * l1 + (1.0 - a) * l2
        lhs = h_value(dist, mu, mid)
        rhs = a * h_value(dist, mu, l1) + (1.0 - a) * h_value(dist, mu, l2)
        assert lhs >= rhs - 1e-10


def test_kinf_monotone_in_mu():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dist = random_dist(rng)
        grid = np.linspace(0.05, 0.95, 19)
        vals = [kinf(dist, float(mu)).value for mu in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_kinf_weighted_matches_rational_reweighting():
    # kl identity for a non-uniform two-atom distribution via weights
    res = kinf_weighted([0.0, 1.0], [0.8, 0.2], 0.5)
    assert res.value == pytest.approx(bernoulli_kl(0.2, 0.5), abs=1e-9)


def test_kinf_empty_distribution_raises():
    with pytest.raises(ValueError):
        kinf(EmpiricalDistribution(), 0.5)


# ---------------------------------------------------------------------------
# witness


def test_witness_is_input_when_mean_dominates():
    dist = EmpiricalDistribution([0.2, 0.8], [1, 1])
    res = kinf(dist, 0.3)
    w = kinf_witness(dist, 0.3, res)
    assert w.mass_at_one == 0.0
    for (x, mass), (xv, cnt) in zip(w.base_atoms, dist.atoms):
        assert x == xv
        assert mass == pytest.approx(cnt / dist.total_count, abs=1e-12)


def test_witness_point_mass_at_zero():
    d0 = EmpiricalDistribution([0.0], [1])
    res = kinf(d0, 0.5)
    w = kinf_witness(d0, 0.5, res)
    assert w.base_atoms[0][1] == pytest.approx(0.5, abs=1e-9)
    assert w.mass_at_one == pytest.approx(0.5, abs=1e-9)
    mean = sum(x * m for x, m in w.base_atoms) + w.mass_at_one
    assert mean == pytest.approx(0.5, abs=1e-9)


def witness_kl(dist, w):
    # direct KL evaluation on the shared support (plus the extra atom at 1)
    masses = {x: m for x, m in w.base_atoms}
    if w.mass_at_one > 0.0:
        masses[1.0] = masses.get(1.0, 0.0) + w.mass_at_one
    total = 0.0
    for x, c in dist.atoms:
        p = c / dist.total_count
        total += p * math.log(p / masses[x])
        total -= p * 0.0
    return total


def test_witness_optimality_on_random_distributions():
    rng = np.random.default_rng(8)
    done = 0
    while done < 50:
        dist = random_dist(rng, max_atoms=5)
        m = dist.mean
        if m >= 0.88:
            continue
        mu = m + 0.1
        res = kinf(dist, mu)
        w = kinf_witness(dist, mu, res)
        total_mass = sum(m_ for _, m_ in w.base_atoms) + w.mass_at_one
        assert total_mass == pytest.approx(1.0, abs=1e-10)
        expectation = sum(x * m_ for x, m_ in w.base_atoms) + w.mass_at_one
        assert expectation >= mu - 1e-8
        assert witness_kl(dist, w) == pytest.approx(res.value, abs=1e-6)
        done += 1


def test_witness_rejects_inconsistent_result():
    dist = EmpiricalDistribution([0.3, 1.0], [1, 1])
    fake = KinfResult(value=0.1, lambda_star=1.0, iterations=1, converged=True)
    with pytest.raises(ValueError):
        kinf_witness(dist, 0.5, fake)
    bad = KinfResult(value=0.1, lambda_star=0.5, iterations=100, converged=False)
    with pytest.raises(ValueError):
        kinf_witness(dist, 0.5, bad)


# ---------------------------------------------------------------------------
# index inversion


def test_klucb_index_zero_threshold_returns_mean():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dist = random_dist(rng)
        assert klucb_index(dist, 0.0) == dist.mean


def test_klucb_index_point_mass_at_zero_closed_form():
    # exactly 1 - e^-d, bit for bit what the vector engine's bern_klucb gives
    for d0 in (EmpiricalDistribution([0.0], [1]), EmpiricalDistribution([0.0], [5])):
        for d in (1e-12, 0.1, 0.5, math.log(2.0), 1.0, 3.0, 40.0):
            exact = -math.expm1(-d)
            assert klucb_index(d0, d) == exact
            assert float(bern_klucb(np.array([0.0]), np.array([d]))[0]) == exact


def test_klucb_index_inverts_bernoulli_divergence():
    dist = EmpiricalDistribution([0.0, 1.0], [1, 1])
    assert klucb_index(dist, bernoulli_kl(0.5, 0.7)) == pytest.approx(0.7, abs=1e-6)


def test_klucb_index_pinsker_cap_and_consistency():
    rng = np.random.default_rng(10)
    for _ in range(50):
        dist = random_dist(rng)
        d = float(rng.uniform(0.0, 2.0))
        idx = klucb_index(dist, d)
        assert dist.mean <= idx <= min(1.0, dist.mean + math.sqrt(d / 2.0)) + 1e-12
        if idx > dist.mean + 1e-7 and idx - 1e-7 > 0:
            assert kinf(dist, idx - 1e-7).value <= d + 1e-6


@pytest.mark.parametrize("threshold", [math.nan, -1e-12, -math.inf])
def test_klucb_index_rejects_a_nan_or_negative_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        klucb_index(EmpiricalDistribution([0.2, 0.7], [1, 1]), threshold)


def test_klucb_index_point_mass_at_one():
    d1 = EmpiricalDistribution([1.0], [3])
    assert klucb_index(d1, 0.5) == 1.0


def test_klucb_index_saturates_at_one_for_huge_threshold():
    dist = EmpiricalDistribution([0.2, 0.6], [1, 1])
    assert klucb_index(dist, 50.0) == 1.0


def _inversion_corpus(rng):
    """(distribution, budget) pairs: 1-60 random atoms, some with atoms
    added at 0 and/or 1, point masses, {0, 1} laws, budgets from e^-8 to
    e^2, and budgets that saturate the index at 1."""
    cases = []
    for i in range(400):
        kind = i % 8
        if kind == 0:
            vals = [0.0] if i % 16 == 0 else [float(rng.random())]
        elif kind == 1:
            vals = [0.0, 1.0]
        else:
            vals = rng.random(int(rng.integers(1, 61)))
            if kind in (2, 4):
                vals = np.append(vals, 0.0)
            if kind in (3, 4):
                vals = np.append(vals, 1.0)
        vals = np.unique(vals)
        dist = EmpiricalDistribution(vals, rng.integers(1, 11, size=vals.size))
        cases.append((dist, math.exp(rng.uniform(-8.0, 2.0))))
    cases += [(EmpiricalDistribution([0.2, 0.6], [1, 1]), 50.0), (random_dist(rng), 40.0)]
    return cases


def test_klucb_index_newton_matches_bisection_oracle(monkeypatch):
    kinf_module = importlib.import_module("bandit_switch.kinf")
    solves = []

    def recording(values, weights, mu):
        result = kinf_weighted(values, weights, mu)
        solves.append(result)
        return result

    monkeypatch.setattr(kinf_module, "kinf_weighted", recording)
    saturated = 0
    for dist, d in _inversion_corpus(np.random.default_rng(11)):
        solves.clear()
        idx = klucb_index(dist, d)
        assert all(res.converged for res in solves), (dist.values, d)
        assert abs(idx - oracles.klucb_index(dist, d)) <= 1e-10, (dist.values, d)
        if dist.mean == 0.0:
            # the closed form 1 - e^-d, rounded to a double, may sit an ulp
            # past the root, so kinf there may exceed d by an ulp
            assert idx == -math.expm1(-d)
        elif idx < 1.0:
            assert kinf(dist, idx).value <= d
        else:
            saturated += 1
    assert saturated >= 2


def test_klucb_index_raises_when_the_bracket_stays_open(monkeypatch):
    kinf_module = importlib.import_module("bandit_switch.kinf")
    dist = EmpiricalDistribution([0.2, 0.6], [1, 1])
    assert klucb_index(dist, 0.1) < 1.0
    monkeypatch.setattr(kinf_module, "_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="not closed"):
        klucb_index(dist, 0.1)


# ---------------------------------------------------------------------------
# kinf as a function of y = -ln(1 - mu): convex, with slope lambda*, and
# above the Bernoulli KL of the mean

laws = st.lists(
    st.tuples(st.floats(0.0, 1.0, allow_subnormal=False), st.integers(1, 10)),
    min_size=1,
    max_size=12,
    unique_by=lambda atom: atom[0],
).map(lambda atoms: EmpiricalDistribution(*zip(*sorted(atoms))))
# mu from 1e-3 to 1 - 9e-4: rounding mu to a double moves y by up to
# 1.1e-16 e^y, which the differences below would read past y = 9
ys = st.floats(1e-3, 7.0)


def kinf_y(nu, y: float) -> KinfResult:
    return kinf(nu, -math.expm1(-y))


@given(nu=laws, y1=ys, y2=ys)
def test_kinf_is_convex_in_y(nu, y1, y2):
    mid = kinf_y(nu, 0.5 * (y1 + y2)).value
    assert mid <= 0.5 * (kinf_y(nu, y1).value + kinf_y(nu, y2).value) + 1e-12


@given(nu=laws, y=ys)
def test_kinf_slope_in_y_is_lambda_star(nu, y):
    h = 1e-5
    # kinf is 0 up to the mean and grows quadratically after it, so a
    # difference across the mean's y reads half that jump in curvature
    assume(nu.mean == 1.0 or abs(y + math.log1p(-nu.mean)) > 2.0 * h)
    slope = (kinf_y(nu, y + h).value - kinf_y(nu, y - h).value) / (2.0 * h)
    assert abs(slope - kinf_y(nu, y).lambda_star) <= 1e-7


@given(nu=laws, y=ys, d=st.floats(1e-6, 20.0))
def test_kinf_and_its_index_are_bounded_by_the_bernoulli_kl_of_the_mean(nu, y, d):
    m, mu = nu.mean, -math.expm1(-y)
    assert kinf(nu, mu).value >= (bernoulli_kl(m, mu) if mu > m else 0.0) - 1e-12
    assert klucb_index(nu, d) <= float(bern_klucb(np.array([m]), np.array([d]))[0]) + 1e-12


@given(nu=laws, d=st.floats(1e-6, 20.0))
def test_klucb_index_brackets_the_root(nu, d):
    # the index is the feasible end of a bracket closed to _INDEX_TOL in mu;
    # the point masses at 0 and 1 return closed forms instead
    assume(0.0 < nu.mean < 1.0)
    u = klucb_index(nu, d)
    # an index of 1 stands for a root past mu(_Y_SATURATED) = 1 - 1e-12
    assert kinf(nu, min(u, -math.expm1(-_Y_SATURATED))).value <= d
    if u < 1.0 - 1e-12:
        assert kinf(nu, u + _INDEX_TOL).value > d


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra", [0, 8], ids=["small-path", "numpy-path"])
def test_an_atom_an_ulp_below_one_caps_lambda_as_an_atom_at_one_does(extra):
    # (x - mu)/(1 - mu) rounds to 1 for x = 1 - 2^-53 at this mu, so lambda
    # = 1 would divide by zero
    vals = [0.0, *np.linspace(0.01, 0.08, extra), 0.25, 1.0 - 2.0**-53]
    nu = EmpiricalDistribution(vals, [2] + [1] * (extra + 2))
    res = kinf(nu, 0.4706498999499004)
    assert res.converged and 0.0 < res.lambda_star < 1.0 and math.isfinite(res.value)
    assert kinf(nu, klucb_index(nu, 0.0625)).value <= 0.0625


@given(nu=laws, y=ys)
def test_witness_certifies_the_dual_value(nu, y):
    # primal-dual certificate: the witness is a law of mean >= mu at
    # divergence KL(nu || witness) equal to the dual value
    mu = -math.expm1(-y)
    res = kinf(nu, mu)
    assume(res.converged and res.value > 0.0)
    w = kinf_witness(nu, mu, res)
    assert sum(x * m for x, m in w.base_atoms) + w.mass_at_one >= mu - 1e-10
    assert abs(sum(m for _, m in w.base_atoms) + w.mass_at_one - 1.0) <= 1e-10
    assert abs(witness_kl(nu, w) - res.value) <= 1e-9


@given(nu=laws, y=ys)
@example(nu=EmpiricalDistribution([0.194, 0.377, 0.39, 0.635, 0.692, 0.799], [2, 8, 9, 4, 1, 8]), y=-math.log1p(-0.601))
@example(nu=EmpiricalDistribution([0.0, 0.1], [3, 1]), y=2.0)  # maximum on the boundary lambda* = 1
def test_the_solver_value_is_the_public_h_at_its_maximiser(nu, y):
    # the solver and h_value evaluate one dual, so they agree to the bit,
    # also at <= _SMALL_ATOMS atoms, where both sum in plain Python
    mu = -math.expm1(-y)
    res = kinf(nu, mu)
    assert res.value == max(h_value(nu, mu, res.lambda_star), 0.0)
    if res.lambda_star == 1.0:
        assert res.value == h_value(nu, mu, 1.0)


def _padded(values, weights, pad: bool):
    # nine more atoms of weight 0 move a law onto the numpy path
    return (values + [0.01 * i for i in range(1, 10)], weights + [0.0] * 9) if pad else (values, weights)


@pytest.mark.parametrize("pad", [False, True], ids=["small-path", "numpy-path"])
@pytest.mark.parametrize(
    "values,weights",
    [
        ([math.nan], [1.0]),
        ([1.5, 0.2], [0.5, 0.5]),
        ([-0.1, 0.2], [0.5, 0.5]),
        ([0.2, 0.4], [1.5, -0.5]),
        ([0.2, 0.4], [math.nan, 1.0]),
        ([0.2, 0.4], [0.5, 0.4]),
        ([0.2, 0.4], [0.5, 0.5 + 2e-9]),
    ],
    ids=["nan-atom", "atom-above-1", "atom-below-0", "negative-weight", "nan-weight", "sum-0.9", "sum-1+2e-9"],
)
@pytest.mark.parametrize("mu", [0.5, 0.9])
def test_kinf_weighted_rejects_bad_raw_input(values, weights, pad, mu):
    # at mu = 0.5 some of these laws have a mean above mu, where the
    # solver returns 0 without a solve; they are rejected all the same
    with pytest.raises(ValueError, match="kinf needs atoms in"):
        kinf_weighted(*_padded(values, weights, pad), mu)


@pytest.mark.parametrize("pad", [False, True], ids=["small-path", "numpy-path"])
def test_kinf_weighted_takes_weights_that_sum_to_1_within_1e9(pad):
    res = kinf_weighted(*_padded([0.2, 0.4], [0.5, 0.5 + 5e-10], pad), 0.9)
    assert res.converged and res.value > 0.0


@pytest.mark.filterwarnings("error")
def test_h_at_lambda_one_is_minus_inf_for_an_atom_an_ulp_below_one():
    # z = (x - mu)/(1 - mu) rounds to 1 for x = 1 - 2^-53 at this mu, so
    # log1p(-1) and 1 / (1 - 1) would divide by zero
    nu = EmpiricalDistribution([0.0, 0.25, 1.0 - 2.0**-53], [2, 1, 1])
    mu = 0.4706498999499004
    assert h_value(nu, mu, 1.0) == -math.inf
    assert h_derivative(nu, mu, 1.0) == -math.inf
    with pytest.raises(ValueError, match="atom at 1"):
        kinf_witness(nu, mu, KinfResult(value=0.1, lambda_star=1.0, iterations=1, converged=True))


# ---------------------------------------------------------------------------
# parametric divergences


def test_bernoulli_kl_values():
    assert bernoulli_kl(0.3, 0.3) == 0.0
    assert bernoulli_kl(0.5, 0.75) == pytest.approx(
        0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25), abs=1e-12
    )
    assert bernoulli_kl(0.5, 0.75) == pytest.approx(0.143841, abs=1e-6)
    assert bernoulli_kl(0.0, 0.4) == pytest.approx(-math.log(0.6), abs=1e-12)
    assert bernoulli_kl(0.3, 0.0) == math.inf
    assert bernoulli_kl(0.3, 1.0) == math.inf
    assert bernoulli_kl(0.0, 0.0) == 0.0
    assert bernoulli_kl(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        bernoulli_kl(-0.1, 0.5)


def exp_index(h: float, d: float) -> float:
    return float(exp_klucb(np.array([h]), np.array([d]))[0])


def test_exp_kl_index_zero_threshold():
    assert exp_index(0.37, 0.0) == 0.37 == exp_kl_index(0.37, 0.0)


def test_exp_kl_index_against_dense_grid():
    h = 0.1
    d = 0.5
    grid = np.linspace(h, h * math.exp(1.0 + d), 1_000_000)
    div = h / grid - 1.0 + np.log(grid / h)
    oracle = float(grid[div <= d].max())
    assert exp_index(h, d) == pytest.approx(oracle, rel=1e-5)
    assert abs(exp_index(h, d) - exp_kl_index(h, d)) < 1e-12


def test_exp_kl_index_monotone_in_threshold():
    ds = np.linspace(0.0, 2.0, 21)
    vals = exp_klucb(np.full(ds.size, 0.1), ds)
    assert np.all(np.diff(vals) >= -1e-12)
    for d, v in zip(ds, vals):
        assert abs(v - exp_kl_index(0.1, float(d))) < 1e-12


def _array_inversion_corpus():
    """Means p = c/n over sample sizes 1 to 10^5 (p = 0 and p = 1 included,
    and p = 0.99999 with d = 1 and 12), budgets d = 0, 1e-12, 12 and
    log-uniform on [1e-12, 12], exponential means h log-uniform on
    [1e-6, 1]; and p = 0.999 at a d where the Newton steps at the
    floating-point floor stay at 5.55e-13 without shrinking."""
    rng = np.random.default_rng(12)
    n = rng.choice([1, 2, 7, 100, 1000, 100_000], size=1500)
    c = rng.integers(0, n + 1)
    c[::7] = 0
    c[1::7] = n[1::7]
    d = np.exp(rng.uniform(math.log(1e-12), math.log(12.0), n.size))
    d[::5] = 0.0
    d[1::5] = 1e-12
    d[2::5] = 12.0
    n = np.append(n, [100_000, 100_000, 1000])
    c = np.append(c, [99_999, 99_999, 999])
    d = np.append(d, [1.0, 12.0, 1.5180592949968516e-10])
    h = np.exp(rng.uniform(math.log(1e-6), 0.0, n.size))
    return c, n, d, h


def test_array_inversions_do_not_depend_on_the_batch():
    c, n, d, h = _array_inversion_corpus()
    p = c / n
    bern = bern_klucb(p, d)
    expo = exp_klucb(h, d)
    assert np.array_equal(bern, [bern_klucb(p[i : i + 1], d[i : i + 1])[0] for i in range(d.size)])
    assert np.array_equal(expo, [exp_klucb(h[i : i + 1], d[i : i + 1])[0] for i in range(d.size)])
    for ci, ni, di, b in zip(c.tolist(), n.tolist(), d.tolist(), bern.tolist()):
        atoms = [(x, k) for x, k in ((0.0, ni - ci), (1.0, ci)) if k]
        dist = EmpiricalDistribution([x for x, _ in atoms], [k for _, k in atoms])
        assert abs(b - klucb_index(dist, di)) <= 1e-10, (ci, ni, di)
    for hi, di, e in zip(h.tolist(), d.tolist(), expo.tolist()):
        # the divergence is evaluated to about eps and its slope in m at the
        # root is about sqrt(2 d) / m, so no inversion resolves m better
        # than eps m / sqrt(2 d): below d = 1e-8 that exceeds 1e-12
        oracle = exp_kl_index(hi, di)
        tol = 1e-12 + (np.finfo(float).eps * oracle / math.sqrt(2.0 * di) if di > 0.0 else 0.0)
        assert abs(e - oracle) <= tol, (hi, di)


def test_newton_raises_on_an_element_that_does_not_stop():
    # steps x, which ends in one iteration, and 0.01 x, which shrinks too
    # slowly to reach 1e-13 in 100 iterations; a NaN step raises too
    x = np.array([1.0, 1.0])
    assert np.array_equal(_newton_down(lambda x, s: s * x, x, np.array([1.0, 1.0])), [0.0, 0.0])
    with pytest.raises(RuntimeError, match=r"did not converge .*\[0\.01\]"):
        _newton_down(lambda x, s: s * x, x, np.array([1.0, 0.01]))
    with pytest.raises(RuntimeError, match=r"did not converge .*\[2\.0\]"):
        _newton_down(lambda x, s: np.where(s > 1.5, np.nan, x), x, np.array([1.0, 2.0]))


@given(
    p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    d=st.floats(1e-12, 50.0),
)
def test_bern_klucb_start_is_certified_and_the_result_matches_the_root(p, d):
    # the start of the Newton in y = -ln(1 - mu), in 40-digit arithmetic:
    # the relaxation's y0 and the quadratic bound's y_b where mu_b < 1
    lo, hi = bern_kl_root_y(p, d)
    with mpmath.workdps(40):
        mp, md = mpmath.mpf(p), mpmath.mpf(d)
        mq = 1 - mp
        start = (md - mp * mpmath.log(mp) - mq * mpmath.log(mq)) / mq
        dq = md * mq
        mu_b = mp + dq + mpmath.sqrt(dq * (dq + 2 * mp))
        if mu_b < 1:
            start = min(start, -mpmath.log1p(-mu_b))
        assert start >= lo
        root = float(-mpmath.expm1(-hi))
        mu_start = float(-mpmath.expm1(-start))
    b = float(bern_klucb(np.array([p]), np.array([d]))[0])
    assert abs(b - root) <= 1e-10
    # Newton only steps down, but its first step is taken before the stop
    # test: from a start within the evaluation noise of kl - d (d near
    # 1e-12, or p near 0) that step may be negative, by up to about 6e-11
    assert b <= mu_start + 1e-10


def test_bern_klucb_newton_stops_within_six_steps_on_fig1_left(monkeypatch):
    # fig1-left's arms and base seed, 200 runs of 600 steps; the quadratic
    # start takes 5 steps per call here, the relaxation start alone up to 11
    newton = _vector._newton_down
    steps = []

    def counting(f, x, *args):
        calls = [0]

        def counted(*a):
            calls[0] += 1
            return f(*a)

        out = newton(counted, x, *args)
        steps.append(calls[0])
        return out

    monkeypatch.setattr(_vector, "_newton_down", counting)
    bandit = BanditInstance((Bernoulli(0.9), Bernoulli(0.8)))
    roster = {2: PolicySpec("klucb-anytime"), 3: PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)}
    for i, spec in roster.items():
        steps.clear()
        _vector.simulate(bandit, spec, 600, [run_seed(20_240_301, i, r) for r in range(200)], [600])
        assert steps and max(steps) <= 6, (spec.family, max(steps))


def test_exp_kl_index_clamped_to_unit_interval():
    assert exp_index(0.9, 50.0) == 1.0
    # the smallest mean the kernel passes (it floors empirical means at 1e-12)
    assert 1e-12 < exp_index(1e-12, 0.5) == pytest.approx(exp_kl_index(1e-12, 0.5), rel=1e-12)
