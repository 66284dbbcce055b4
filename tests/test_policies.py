"""Index-policy layer: exploration functions, index formulas, switch
rules, and arm selection.  A state is one run's pull counts and reward
sums, arrays of shape (1, K), its time and each arm's empirical
distribution, in the order ``indices`` takes them."""

import dataclasses
import math
import re

import numpy as np
import pytest

from bandit_switch import (
    FAMILIES,
    EmpiricalDistribution,
    PolicySpec,
    indices,
    kinf,
    log_plus,
    moss_index,
    phi,
    switch_threshold,
    switch_value,
)
from bandit_switch import _vector
from bandit_switch.policies import _NEEDS_HORIZON, _READS
from bandit_switch.kinf import _bern_kl, klucb_index
import oracles


# ---------------------------------------------------------------------------
# exploration functions


def test_log_plus_values():
    assert log_plus(0.5) == 0.0
    assert log_plus(1.0) == 0.0
    assert log_plus(math.e**2) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        log_plus(0.0)


def test_phi_values():
    assert phi(0.5) == 0.0
    assert phi(1.0) == 0.0
    assert phi(math.e) == pytest.approx(1.0 + math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        phi(-1.0)


def test_phi_dominates_log_plus_and_is_nondecreasing():
    xs = np.geomspace(1e-3, 1e6, 200)
    prev = 0.0
    for x in xs:
        val = phi(float(x))
        assert val >= log_plus(float(x)) - 1e-15
        assert val >= prev - 1e-12
        prev = val


# ---------------------------------------------------------------------------
# index formulas


def test_moss_index_vanishing_bonus():
    # once n reaches the ratio the log_plus bonus is exactly zero
    assert moss_index(0.37, 10, 10.0) == 0.37
    assert moss_index(0.37, 25, 10.0) == 0.37


def test_moss_index_examples():
    assert moss_index(0.5, 1, math.e**2) == pytest.approx(1.5, abs=1e-12)
    assert moss_index(0.9, 4, 100.0 / 2.0) == pytest.approx(0.9 + math.sqrt(math.log(12.5) / 8.0), abs=1e-12)
    assert moss_index(0.9, 4, 50.0) == pytest.approx(1.46189, abs=1e-4)


def test_switch_threshold_examples():
    assert switch_threshold(32, 1, 0.2) == 2
    assert switch_threshold(3, 7, 0.2) == 0
    assert switch_threshold(512, 2, 8.0 / 9.0) == 138
    with pytest.raises(ValueError):
        switch_threshold(0, 1)


def test_switch_value_conventions():
    # one rule for every exponent: the floored ratio to the power, real-valued
    for tau, k, e in ((1000, 3, 0.2), (512, 2, 8.0 / 9.0), (1000, 3, 0.889)):
        assert switch_value(tau, k, e) == math.floor(tau / k) ** e
    # at 1/5 an integer count takes the branch of the paper's integer
    # threshold floor((tau/K)^(1/5)) = 3, which switch_threshold returns
    assert switch_threshold(1000, 3, 0.2) == 3 == math.floor((1000 / 3) ** 0.2)
    assert [n <= switch_value(1000, 3, 0.2) for n in range(1, 7)] == [n <= 3 for n in range(1, 7)]


def test_one_switch_rule_keeps_the_two_branch_thresholds():
    # The former rule floored the power at every exponent but 8/9.  An
    # integer pull count takes the same branch under both rules exactly when
    # their floors agree, which they do at every tau <= 10^6.  The one rule
    # reads tau through floor(tau/K) alone, so it is called once per ratio.
    tau = np.arange(1, 10**6 + 1)
    for k in (1, 2, 3, 4, 5, 7, 10, 16, 50, 64):
        one_rule = np.array([switch_value(max(m * k, 1), k) for m in range(10**6 // k + 1)])
        assert np.array_equal(np.floor(one_rule[tau // k]), oracles.switch_value(tau, k)), k
    # at 8/9 both rules are floor(tau/K)^(8/9)
    sample = np.arange(1, 10**6, 997)
    delayed = [switch_value(x, 3, 8.0 / 9.0) for x in sample.tolist()]
    assert np.array_equal(delayed, oracles.switch_value(sample, 3, 8.0 / 9.0))


# ---------------------------------------------------------------------------
# PolicySpec


def test_policy_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec("moss")  # needs horizon
    with pytest.raises(ValueError):
        PolicySpec("klucb")
    with pytest.raises(ValueError):
        PolicySpec("nope")
    with pytest.raises(ValueError):
        PolicySpec("moss", horizon=100, exploration="log_t")
    with pytest.raises(ValueError, match="takes no exploration"):
        PolicySpec("ucb", exploration="log_t")
    with pytest.raises(ValueError):
        PolicySpec("klucb-switch", horizon=100, switch_exponent=1.2)


# A value off the default for every setting, and a state on which each
# changes some index of every family that reads it.
OFF_DEFAULT = {"horizon": 1000, "exploration": "augmented_phi", "switch_exponent": 0.9, "sigma": 0.3}
TABLE_STATE = (np.array([[10.0, 40.0, 250.0]]), np.array([[6.0, 20.0, 180.0]]), 300)


def base_spec(family, **kwargs):
    return PolicySpec(family, **({"horizon": 300} if family in _NEEDS_HORIZON else {}), **kwargs)


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_reads_exactly_the_settings_of_its_row(family):
    # the table lists its families in order and each row in field order;
    # every setting on a row moves some index, and every other one is
    # rejected once set off its default
    assert FAMILIES == tuple(_READS)
    defaults = {f.name: f.default for f in dataclasses.fields(PolicySpec)}
    row = _READS[family]
    assert list(row) == sorted(row, key=list(defaults).index)
    assert set(OFF_DEFAULT) == set(defaults) - {"family", "label"}
    base = indices(base_spec(family), *TABLE_STATE)
    for name, value in OFF_DEFAULT.items():
        if name in row:
            moved = indices(dataclasses.replace(base_spec(family), **{name: value}), *TABLE_STATE)
            assert not np.array_equal(moved, base), name
        else:
            with pytest.raises(ValueError, match=re.escape(f"family {family!r} takes no {name}, got {value!r}")):
                base_spec(family, **{name: value})
            base_spec(family, **{name: defaults[name]})  # the default itself is accepted


def test_the_config_echo_holds_the_settings_of_the_row():
    assert PolicySpec("imed").to_config() == {"family": "imed"}
    assert PolicySpec("ucb", label="UCB").to_config() == {"family": "ucb", "label": "UCB"}
    assert list(PolicySpec("klucb-gauss", horizon=50, sigma=0.2, label="g").to_config()) == [
        "family", "horizon", "exploration", "sigma", "label"
    ]
    assert "horizon" not in PolicySpec("klucb-exp").to_config()
    # an echo written when imed still echoed its (unread) exploration loads
    assert PolicySpec.from_config({"family": "imed", "exploration": "log_plus"}) == PolicySpec("imed")


def test_policy_spec_config_round_trip():
    specs = [
        PolicySpec("ucb", label="UCB"),
        PolicySpec("moss", horizon=1000),
        PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0),
        PolicySpec("klucb-gauss", sigma=0.25),
    ]
    for spec in specs:
        assert PolicySpec.from_config(spec.to_config()) == spec
    with pytest.raises(ValueError):
        PolicySpec.from_config({"family": "ucb", "bogus": 3})


# ---------------------------------------------------------------------------
# index semantics


def state_of(rewards, t=None, bins=None):
    """(n, s, t, dists) of one run whose arm a observed ``rewards[a]`` in
    order; ``t`` is the number of pulls unless given.  With ``bins``, the
    rewards enter the distributions rounded to the grid {0, 1/bins, ..., 1},
    as the simulation loop pushes them, and the sums stay exact."""
    n = np.array([[len(xs) for xs in rewards]], dtype=float)
    s = np.array([[sum(xs) for xs in rewards]], dtype=float)
    grid = (lambda x: x) if bins is None else (lambda x: round(x * bins) / bins)
    dists = [EmpiricalDistribution.from_observations(grid(x) for x in xs) for xs in rewards]
    return n, s, int(n.sum()) if t is None else t, dists


def index(spec, state):
    """Every arm's index on one run's ``state``, shape (K,)."""
    return indices(spec, *state)[0]


def select(spec, state, tie_u):
    """The simulation loop's pick at ``state``: the argmax of the indices,
    ties broken by the uniform ``tie_u``."""
    return int(_vector._tie_break(indices(spec, *state), tie_u)[0])


def make_state(counts, sums, t):
    return state_of([[sums[a] / counts[a]] * counts[a] for a in range(len(counts))], t)


def random_state(rng, k, extra_pulls, rewards=(0.0, 1.0)):
    # every arm pulled once, then ``extra_pulls`` pulls of arms drawn with
    # random (uneven) probabilities, so that pull counts differ widely; each
    # reward is drawn uniformly from ``rewards``
    observed = [[] for _ in range(k)]
    for arm in list(range(k)) + [int(a) for a in rng.choice(k, size=extra_pulls, p=rng.dirichlet(np.ones(k)))]:
        observed[arm].append(rewards[int(rng.integers(0, len(rewards)))])
    return state_of(observed)


def test_unpulled_arm_raises():
    with pytest.raises(ValueError, match="arm 1 has not been pulled"):
        index(PolicySpec("ucb"), state_of([[0.5], []]))
    # a batch names the first arm that some run has not pulled
    n, s = np.array([[1.0, 2.0, 1.0], [3.0, 1.0, 0.0]]), np.ones((2, 3))
    with pytest.raises(ValueError, match="arm 2 has not been pulled"):
        indices(PolicySpec("moss-anytime"), n, s, 5)


def test_switch_equals_moss_branch_exactly():
    t_hor = 100
    sw = PolicySpec("klucb-switch", horizon=t_hor)
    mo = PolicySpec("moss", horizon=t_hor)
    state = make_state([30, 8], [21.0, 3.2], 38)
    f = switch_value(t_hor, 2, 0.2)
    assert np.all(state[0] > f)
    assert np.array_equal(index(sw, state), index(mo, state))


def test_klucb_threshold_zero_returns_mean():
    t_hor = 20
    spec = PolicySpec("klucb", horizon=t_hor)
    state = make_state([10, 10], [7.0, 3.0], 20)
    assert index(spec, state)[0] == pytest.approx(0.7, abs=1e-12)


def test_gauss_index_is_moss_with_matching_constant():
    # 2 sigma^2 = 1/2 at sigma = 1/2, so the indices coincide exactly
    state = make_state([5, 3], [2.5, 2.1], 8)
    gauss = PolicySpec("klucb-gauss", sigma=0.5, horizon=100)
    mo = PolicySpec("moss", horizon=100)
    assert index(gauss, state) == pytest.approx(index(mo, state), abs=1e-15)


def test_ucb_index_formula():
    state = make_state([4, 4], [2.0, 2.0], 8)
    assert index(PolicySpec("ucb"), state)[0] == pytest.approx(0.5 + math.sqrt(math.log(8) / 8.0), abs=1e-12)


def test_pinsker_index_ordering_on_random_states():
    rng = np.random.default_rng(21)
    t_hor = 200
    kl_t = PolicySpec("klucb", horizon=t_hor)
    mo_t = PolicySpec("moss", horizon=t_hor)
    sw_t = PolicySpec("klucb-switch", horizon=t_hor, switch_exponent=8.0 / 9.0)
    kl_a = PolicySpec("klucb-anytime")
    mo_a = PolicySpec("moss-anytime")
    sw_a = PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)
    # binary rewards take the Bernoulli formulas; a reward of 1/2 sends a
    # cell to klucb_index, which is held to the same ordering
    for rewards in ((0.0, 1.0), (0.0, 0.5, 1.0)):
        for _ in range(30):
            k = int(rng.integers(2, 4))
            state = random_state(rng, k, int(rng.integers(0, 117)), rewards)
            u_kl, u_sw, u_m = (index(s, state) for s in (kl_t, sw_t, mo_t))
            assert np.all(u_kl <= u_sw + 1e-9)
            assert np.all(u_sw <= u_m + 1e-9)
            u_kla, u_swa, u_ma = (index(s, state) for s in (kl_a, sw_a, mo_a))
            assert np.all(u_kla <= u_swa + 1e-9)
            assert np.all(u_swa <= u_ma + 1e-9)


def test_anytime_indices_below_horizon_phi_counterparts():
    # with the same augmented exploration, replacing the running time by
    # the horizon can only increase an index (t <= T, phi nondecreasing)
    rng = np.random.default_rng(22)
    t_hor = 300
    kl_a = PolicySpec("klucb-anytime", exploration="augmented_phi")
    kl_t_phi = PolicySpec("klucb", horizon=t_hor, exploration="augmented_phi")
    mo_a = PolicySpec("moss-anytime", exploration="augmented_phi")
    mo_t_phi = PolicySpec("moss", horizon=t_hor, exploration="augmented_phi")
    for _ in range(20):
        state = random_state(rng, 2, int(rng.integers(0, t_hor - 1)))
        assert state[2] <= t_hor
        assert np.all(index(kl_a, state) <= index(kl_t_phi, state) + 1e-9)
        assert np.all(index(mo_a, state) <= index(mo_t_phi, state) + 1e-9)


def test_imed_prefers_undersampled_equal_mean_arm():
    # equal means: the divergence term vanishes, leaving ln N; the arm
    # with fewer pulls gets the smaller score, so the larger index -score,
    # and is selected
    state = make_state([20, 5], [10.0, 2.5], 25)
    spec = PolicySpec("imed")
    s0, s1 = index(spec, state)
    assert s1 > s0
    assert select(spec, state, tie_u=0.0) == 1


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("klucb", {"horizon": 300}),
        ("klucb-anytime", {}),
        ("klucb-switch", {"horizon": 300}),
        ("klucb-switch-anytime", {"switch_exponent": 8.0 / 9.0}),
        ("imed", {}),
    ],
)
def test_kernel_empirical_branch_matches_bernoulli_branch(family, kwargs):
    # on {0, 1} rewards the kinf branch (given the distributions) and the
    # Bernoulli branch (means only, its KL cells queued as the simulation
    # loop queues them, then inverted) compute the same divergence, by the
    # same formulas, to the bit
    spec = PolicySpec(family, **kwargs)
    ctx = _vector._Ctx(spec)
    rng = np.random.default_rng(24)
    for _ in range(40):
        n, s, t, dists = random_state(rng, int(rng.integers(2, 5)), int(rng.integers(0, 250)))
        empirical = indices(spec, n, s, t, dists)[0]
        queued = []  # imed, and a switch with every arm past its threshold, queue nothing
        bernoulli = _vector._indices(ctx, n, s, t, None, queued)
        for cells, p, d in queued:
            bernoulli.T.put(cells, _vector.bern_klucb(p, d))
        assert np.array_equal(empirical, bernoulli[0])


def stack(states):
    """One batch of one-run ``states``: counts and sums of shape (runs, K),
    and the distributions in arm-major order, ``arm * runs + run``."""
    n, s = np.vstack([st[0] for st in states]), np.vstack([st[1] for st in states])
    return n, s, [st[3][a] for a in range(n.shape[1]) for st in states]


@pytest.mark.parametrize("laws", ["bernoulli", "continuous"])
@pytest.mark.parametrize("family", FAMILIES)
def test_batch_indices_equal_each_run_alone(family, laws):
    # the kernel works cell by cell (imed's reference mean row by row), so
    # a run's indices do not depend on the batch around it: Bernoulli
    # states on the kernel's Bernoulli branch, and continuous states, whose
    # cells mix laws on {0, 1} and wider ones, with their distributions
    spec = PolicySpec(family, horizon=300) if family in _NEEDS_HORIZON else PolicySpec(family)
    rng = np.random.default_rng(45)
    for _ in range(6):
        k, t = int(rng.integers(2, 5)), int(rng.integers(20, 300))
        rewards = (0.0, 1.0) if laws == "bernoulli" else (0.0, 1.0, *rng.random(4).tolist())
        states = [random_state(rng, k, int(rng.integers(0, 60)), rewards) for _ in range(int(rng.integers(2, 9)))]
        n, s, dists = stack(states)
        dists = None if laws == "bernoulli" else dists
        batch = indices(spec, n, s, t, dists)
        assert batch.shape == n.shape
        for r, (n1, s1, _, d1) in enumerate(states):
            alone = indices(spec, n1, s1, t, None if dists is None else d1)
            assert batch[r].tobytes() == alone[0].tobytes(), (family, r)


def test_binned_law_on_zero_takes_its_own_mean():
    # rewards 0.004 round to the atom 0 at bins = 50, so arm 0's law is the
    # point mass at 0 while s/n = 0.004; arm 1's law {0.6} is not binary
    state = state_of([[0.004] * 2, [0.6] * 3], bins=50)
    n, s, t, dists = state
    law = dists[0]
    assert law.values.tolist() == [0.0] and s[0, 0] / n[0, 0] == 0.004
    d = _vector._explo("log_plus", t / (2 * n)) / n
    klucb = index(PolicySpec("klucb-anytime"), state)
    assert klucb[0] == -math.expm1(-d[0, 0]) == klucb_index(law, d[0, 0])
    assert klucb[1] == klucb_index(dists[1], d[0, 1])
    pmax = np.clip((s / n).max(axis=1), 1e-9, 1.0 - 1e-9)
    kl = np.array([[_bern_kl(0.0, pmax[0]), 0.0]])
    assert np.array_equal(index(PolicySpec("imed"), state), (-(n * kl + np.log(n)))[0])


# ---------------------------------------------------------------------------
# selection


def test_select_strict_argmax():
    state = make_state([3, 3], [2.7, 0.6], 6)
    assert select(PolicySpec("ucb"), state, tie_u=0.99) == 0


def test_tie_break_is_uniform():
    state = make_state([5, 5, 5], [2.0, 2.0, 2.0], 15)
    spec = PolicySpec("ucb")
    rng = np.random.default_rng(23)
    picks = np.array([select(spec, state, tie_u=float(rng.random())) for _ in range(10_000)])
    freq = np.bincount(picks, minlength=3) / picks.size
    se = math.sqrt((1 / 3) * (2 / 3) / picks.size)
    assert np.all(np.abs(freq - 1.0 / 3.0) <= 3.0 * se)


def test_argmax_invariant_to_constant_mean_shift():
    # MOSS index = mean + bonus(n); shifting every mean by a constant
    # shifts every index equally and keeps the argmax set
    spec = PolicySpec("moss", horizon=100)
    base = make_state([4, 9, 2], [2.0, 5.4, 0.6], 15)
    shifted = make_state([4, 9, 2], [2.0 + 4 * 0.1, 5.4 + 9 * 0.1, 0.6 + 2 * 0.1], 15)
    assert select(spec, base, tie_u=0.5) == select(spec, shifted, tie_u=0.5)


def _rank_rule(scores, u, minimize):
    # The tie rule written out run by run: among the m best arms, the i-th
    # in arm order for u in [i/m, (i+1)/m).
    picks = []
    for row, ui in zip(scores, np.atleast_1d(u)):
        tied = np.flatnonzero(row == (row.min() if minimize else row.max()))
        picks.append(tied[int(ui * len(tied))])
    return np.array(picks)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("minimize", [False, True])
@pytest.mark.parametrize("ties", ["none", "some", "every"])
def test_tie_break_agrees_with_the_rank_rule(minimize, ties, order):
    # the simulation loop's score buffer is arm-major (F order); one-run
    # callers pass C-ordered rows.  The tie-break maximises, so a score to
    # minimise is passed negated
    rng = np.random.default_rng(41)
    runs, k = 300, 5
    for _ in range(20):
        scores = np.array([rng.permutation(k) for _ in range(runs)], dtype=float, order=order)
        if ties != "none":
            tied_rows = np.arange(runs) if ties == "every" else rng.choice(runs, runs // 3, replace=False)
            best = -1.0 if minimize else float(k)
            for r in tied_rows:
                scores[r, rng.choice(k, rng.integers(2, k + 1), replace=False)] = best
        u = rng.random(runs)
        assert scores.flags.f_contiguous == (order == "F")
        signed = -scores if minimize else scores
        assert np.array_equal(_vector._tie_break(signed, u), _rank_rule(scores, u, minimize))
        # the scalar engine's call: one run, shape (1, K), a float uniform
        for r in range(0, runs, 37):
            one = _vector._tie_break(signed[r][None], float(u[r]))
            assert one.shape == (1,) and one[0] == _rank_rule(scores[r][None], u[r], minimize)[0]


def random_state_with_twins(rng, k, extra_pulls):
    # rewards in [0, 1] with atoms at 0 and 1; arms 1 to twins - 1 are
    # copies of arm 0 (the same rewards in the same order), and in half of
    # the states every arm is, so that every family ties arms exactly
    twins = k if rng.random() < 0.5 else 2
    observed = [[] for _ in range(k)]
    for arm in [0, *range(twins, k)] + [int(a) for a in rng.choice([0, *range(twins, k)], size=extra_pulls)]:
        x = float(rng.choice([0.0, 1.0, rng.random()]))
        for a in range(twins) if arm == 0 else (arm,):
            observed[a].append(x)
    return state_of(observed)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_maximises_its_index(family):
    # one score direction: the pick is the rank rule's argmax of indices,
    # and imed's index is its score negated, -(N kinf + ln N)
    spec = PolicySpec(family, horizon=400) if family in _NEEDS_HORIZON else PolicySpec(family)
    rng = np.random.default_rng(43)
    tied_states = 0
    for _ in range(30):
        state = random_state_with_twins(rng, int(rng.integers(2, 6)), int(rng.integers(0, 120)))
        idx = index(spec, state)
        tied_states += int(np.count_nonzero(idx == idx.max()) > 1)
        for u in rng.random(4):
            assert select(spec, state, float(u)) == _rank_rule(idx[None], u, False)[0]
        if family == "imed":
            n, s, _, dists = state
            n, mean = n[0], s[0] / n[0]
            pmax = float(np.clip(mean.max(), 1e-9, 1.0 - 1e-9))
            kl = np.array([kinf(d, pmax).value if m < pmax else 0.0 for d, m in zip(dists, mean)])
            assert np.array_equal(idx, -(n * kl + np.log(n)))
    assert tied_states > 0
