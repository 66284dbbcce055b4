"""Arm models and the empirical-distribution accumulator."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bandit_switch import (
    BanditInstance,
    Bernoulli,
    Dirac,
    Discrete,
    EmpiricalDistribution,
    TruncatedExponential,
    TruncatedGaussian,
    arm_from_config,
)

ALL_ARMS = [
    Bernoulli(0.3),
    Bernoulli(0.0),
    Bernoulli(1.0),
    TruncatedExponential(0.15),
    TruncatedExponential(2.0),
    TruncatedGaussian(0.7, 0.1),
    TruncatedGaussian(-0.2, 0.5),
    Dirac(0.7),
    Discrete((0.1, 0.4, 0.9), (0.2, 0.5, 0.3)),
]


# ---------------------------------------------------------------------------
# EmpiricalDistribution


def test_observe_single_point():
    d = EmpiricalDistribution.from_observations([0.5])
    assert d.atoms == [(0.5, 1)]
    assert d.mean == 0.5
    assert d.total_count == 1


def test_observe_increments_existing_atom():
    d = EmpiricalDistribution.from_observations([1.0, 0.0, 1.0])
    assert d.atoms == [(0.0, 1), (1.0, 2)]
    assert d.mean == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_observe_rejects_out_of_range():
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_observations([1.5])
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_observations([0.5, -0.1])


def test_observe_order_insensitive():
    rng = np.random.default_rng(11)
    xs = rng.integers(0, 5, size=200) / 4.0
    a = EmpiricalDistribution.from_observations(xs)
    b = EmpiricalDistribution.from_observations(rng.permutation(xs))
    assert a == b


@given(
    orders=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).flatmap(
        lambda xs: st.tuples(st.just(xs), st.permutations(xs))
    ),
)
@example(orders=([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]))  # means 0x1.999999999999bp-3 and ...99p-3
def test_only_the_mean_depends_on_observation_order(orders):
    a, b = (EmpiricalDistribution.from_observations(xs) for xs in orders)
    assert a == b
    for attr in ("values", "counts", "weights"):
        assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
    # each mean is a running sum of n terms in [0, 1], within (n + 1) ulp of
    # the exact mean (relative), so two orders are within twice that
    n = len(orders[0])
    assert abs(a.mean - b.mean) <= 2 * (n + 2) * 2.0**-53 * max(a.mean, b.mean)


def test_mean_cache_tracks_exact_mean():
    rng = np.random.default_rng(12)
    xs = rng.random(1000)
    d = EmpiricalDistribution.from_observations(xs)
    exact = float(np.dot(d.values, d.counts)) / d.total_count
    assert abs(d.mean - exact) <= 1e-12
    assert d.total_count == int(d.counts.sum()) == 1000


def test_law_of_large_numbers_smoke():
    rng = np.random.default_rng(13)
    arm = Bernoulli(0.3)
    d = EmpiricalDistribution.from_observations(arm.quantile(rng.random(1000)))
    assert abs(d.mean - 0.3) < 0.05


def test_constructor_validation():
    with pytest.raises(ValueError):
        EmpiricalDistribution([0.5, 0.2], [1, 1])  # not increasing
    with pytest.raises(ValueError):
        EmpiricalDistribution([0.5], [0])  # zero count
    with pytest.raises(ValueError):
        EmpiricalDistribution([1.2], [1])  # out of range


@pytest.mark.parametrize(
    "values,counts,message",
    [
        ([math.nan], [1], "lie in"),
        ([0.2, math.nan], [1, 1], "lie in"),
        ([0.5], [1.5], "whole numbers"),
        ([0.2, 0.7], [2, 0.5], "whole numbers"),
        ([0.5], [math.nan], "whole numbers"),
        ([0.5], [math.inf], "whole numbers"),
    ],
)
def test_constructor_rejects_nan_atoms_and_fractional_counts(values, counts, message):
    # a NaN atom would give kinf a NaN value marked converged, and a count
    # of 1.5 would be truncated to 1
    with pytest.raises(ValueError, match=message):
        EmpiricalDistribution(values, counts)


def test_constructor_keeps_whole_float_counts():
    assert EmpiricalDistribution([0.2, 0.7], [2.0, 3.0]) == EmpiricalDistribution([0.2, 0.7], [2, 3])


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("arm", ALL_ARMS, ids=lambda a: f"{a.kind}")
def test_samples_stay_in_unit_interval(arm):
    rng = np.random.default_rng(14)
    draws = np.asarray(arm.quantile(rng.random(100_000)), dtype=float)
    assert draws.min() >= 0.0
    assert draws.max() <= 1.0


def test_dirac_always_returns_its_value():
    rng = np.random.default_rng(15)
    arm = Dirac(0.7)
    for _ in range(10):
        assert arm.quantile(rng.random()) == 0.7


def test_degenerate_bernoulli():
    rng = np.random.default_rng(16)
    assert all(Bernoulli(1.0).quantile(rng.random()) == 1.0 for _ in range(10))
    assert all(Bernoulli(0.0).quantile(rng.random()) == 0.0 for _ in range(10))


def test_truncated_gaussian_sample_mean_matches_analytic():
    rng = np.random.default_rng(17)
    arm = TruncatedGaussian(0.7, 0.1)
    draws = arm.quantile(rng.random(100_000))
    assert abs(float(np.mean(draws)) - arm.true_mean()) < 0.01


# ---------------------------------------------------------------------------
# true means


def test_true_mean_trivial_models():
    assert Bernoulli(0.8).true_mean() == 0.8
    assert Dirac(0.3).true_mean() == 0.3


def test_truncated_exponential_mean_closed_form_and_monte_carlo():
    theta = 0.15
    arm = TruncatedExponential(theta)
    expected = theta * (1.0 - math.exp(-1.0 / theta))
    assert arm.true_mean() == pytest.approx(expected, abs=1e-10)
    rng = np.random.default_rng(18)
    draws = arm.quantile(rng.random(1_000_000))
    se = float(np.std(draws)) / 1000.0
    assert abs(float(np.mean(draws)) - expected) < 3.0 * se + 1e-6


def test_truncated_gaussian_mean_closed_form_against_quadrature():
    from scipy.integrate import quad

    for m, s in ((0.7, 0.1), (0.2, 0.4), (-0.1, 0.3), (1.1, 0.2)):
        arm = TruncatedGaussian(m, s)

        def integrand(x):
            return min(max(x, 0.0), 1.0) * math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))

        val, _ = quad(integrand, m - 12 * s, m + 12 * s, limit=200)
        assert arm.true_mean() == pytest.approx(val, abs=1e-10)


def test_discrete_mean_and_normalization():
    arm = Discrete((0.0, 0.5, 1.0), (0.25, 0.5, 0.25))
    assert arm.true_mean() == pytest.approx(0.5, abs=1e-12)
    assert sum(arm.probs) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        Discrete((0.1, 0.2), (0.6, 0.5))  # sums to 1.1


def test_empirical_mean_converges_at_clt_rate():
    rng = np.random.default_rng(19)
    p = 0.3
    n = 40_000
    draws = Bernoulli(p).quantile(rng.random(n))
    sigma = math.sqrt(p * (1 - p))
    assert abs(float(np.mean(draws)) - p) <= 4.0 * sigma / math.sqrt(n)


# ---------------------------------------------------------------------------
# bandit instance and config


def test_bandit_instance_gaps():
    b = BanditInstance((Bernoulli(0.9), Bernoulli(0.8), Dirac(0.5)))
    assert b.mu_star == 0.9
    assert np.allclose(b.gaps, [0.0, 0.1, 0.4])
    assert (b.gaps >= 0).all()
    assert (b.gaps == 0).any()
    with pytest.raises(ValueError):
        BanditInstance(())


@pytest.mark.parametrize("arm", ALL_ARMS, ids=lambda a: f"{a.kind}")
def test_arm_config_round_trip(arm):
    again = arm_from_config(arm.to_config())
    assert again.to_config() == arm.to_config()
    assert again.true_mean() == pytest.approx(arm.true_mean(), abs=1e-12)


# One arm of each kind, with its configuration as JSON writes it.
ECHOES = [
    (Bernoulli(0.3), '{"kind": "bernoulli", "p": 0.3}'),
    (TruncatedExponential(0.15), '{"kind": "truncexp", "mean": 0.15}'),
    (TruncatedGaussian(0.7, 0.1), '{"kind": "truncgauss", "mean": 0.7, "sigma": 0.1}'),
    (Dirac(0.7), '{"kind": "dirac", "value": 0.7}'),
    (
        Discrete((0.1, 0.4, 0.9), (0.2, 0.5, 0.3)),
        '{"kind": "discrete", "values": [0.1, 0.4, 0.9], "probs": [0.2, 0.5, 0.3]}',
    ),
]


@pytest.mark.parametrize("arm, echo", ECHOES, ids=lambda x: getattr(x, "kind", ""))
def test_arm_config_echo_is_pinned_and_round_trips(arm, echo):
    assert json.dumps(arm.to_config()) == echo
    again = arm_from_config(json.loads(echo))
    assert again == arm
    assert type(again) is type(arm)


FINITE_ARMS = [
    Bernoulli(0.3),
    Bernoulli(0.0),
    Bernoulli(1.0),
    Dirac(0.7),
    Dirac(0.0),
    Dirac(1.0),
    Discrete((0.1, 0.4, 0.9), (0.2, 0.5, 0.3)),
    Discrete((0.0, 1.0), (0.3, 0.7)),
    Discrete((0.0, 0.5, 1.0), (0.25, 0.5, 0.25)),
]


@pytest.mark.parametrize("arm", FINITE_ARMS, ids=repr)
def test_finite_law_support(arm):
    values, probs = arm.support
    assert len(values) == len(probs) == len(set(values))
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
    assert arm.true_mean() == pytest.approx(float(np.dot(values, probs)), abs=1e-15)
    assert arm.support_binary == all(v in (0.0, 1.0) for v in values)
    # The quantile on a uniform grid of m points draws only support values,
    # each at its probability up to the grid's resolution.
    m = 10_000
    draws = np.asarray(arm.quantile((np.arange(m) + 0.5) / m), dtype=float)
    assert set(draws.tolist()) <= set(values)
    for v, p in zip(values, probs):
        assert np.count_nonzero(draws == v) / m == pytest.approx(p, abs=1.0 / m)


def test_arm_config_rejects_unknown():
    with pytest.raises(ValueError, match="^unknown arm kind 'cauchy'$"):
        arm_from_config({"kind": "cauchy", "x0": 0.5})
    with pytest.raises(ValueError, match=r"^unknown keys \['bogus'\] in 'bernoulli' arm config$"):
        arm_from_config({"kind": "bernoulli", "p": 0.5, "bogus": 1})
    with pytest.raises(ValueError, match=r"^missing keys \['p'\] in 'bernoulli' arm config$"):
        arm_from_config({"kind": "bernoulli"})
    with pytest.raises(ValueError, match=r"^missing keys \['probs'\] in 'discrete' arm config$"):
        arm_from_config({"kind": "discrete", "values": [0.0, 1.0]})
