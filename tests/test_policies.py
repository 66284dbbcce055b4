"""Index-policy layer: exploration functions, index formulas, switch
rules, arm selection, and state updates."""

import math

import numpy as np
import pytest

from bandit_switch import (
    FAMILIES,
    BanditInstance,
    Bernoulli,
    PolicySpec,
    PolicyState,
    indices,
    kinf,
    log_plus,
    moss_index,
    phi,
    select_arm,
    switch_threshold,
    switch_value,
    update,
)
from bandit_switch import _vector
from bandit_switch.kinf import _bern_kl, klucb_index


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
    # theoretical exponent floors the power; the empirical 8/9 floors the
    # ratio and keeps the power real-valued
    assert switch_value(1000, 3, 0.2) == float(math.floor((1000 / 3) ** 0.2))
    assert switch_value(512, 2, 8.0 / 9.0) == pytest.approx(256.0 ** (8.0 / 9.0), rel=1e-12)


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
    with pytest.raises(ValueError):
        PolicySpec("klucb-switch", horizon=100, switch_exponent=1.2)
    spec = PolicySpec("ucb")
    assert spec.exploration == "log_t"


def test_policy_spec_config_round_trip():
    specs = [
        PolicySpec("ucb", label="UCB"),
        PolicySpec("moss", horizon=1000),
        PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0),
        PolicySpec("klucb-gauss", sigma=0.25),
        PolicySpec("ucb", ucb_classic=True),
    ]
    for spec in specs:
        assert PolicySpec.from_config(spec.to_config()) == spec
    with pytest.raises(ValueError):
        PolicySpec.from_config({"family": "ucb", "bogus": 3})


# ---------------------------------------------------------------------------
# state updates


def test_update_postconditions():
    state = PolicyState.fresh(2)
    update(state, 0, 1.0)
    assert state.counts[0, 0] == 1
    assert state.mean(0) == 1.0
    update(state, 0, 0.2)
    update(state, 0, 0.4)
    assert state.mean(0) == pytest.approx((1.0 + 0.2 + 0.4) / 3.0, abs=1e-12)
    assert state.t == 3
    with pytest.raises(ValueError):
        update(state, 0, 1.5)


def test_counts_sum_to_time_after_seeded_run():
    rng = np.random.default_rng(20)
    bandit = BanditInstance((Bernoulli(0.7), Bernoulli(0.4), Bernoulli(0.1)))
    spec = PolicySpec("moss-anytime")
    tie_rng = np.random.default_rng(99)
    state = PolicyState.fresh(3)
    for step in range(1, 1001):
        arm = step - 1 if step <= 3 else select_arm(spec, state, float(tie_rng.random()))
        update(state, arm, float(bandit.arms[arm].quantile(rng.random())))
        assert state.counts.sum() == state.t == step
        assert state.mean(arm) == pytest.approx(state.dists[arm].mean, abs=1e-12)


# ---------------------------------------------------------------------------
# index semantics


def make_state(counts, sums, t):
    k = len(counts)
    state = PolicyState.fresh(k)
    for a in range(k):
        n = counts[a]
        if n == 0:
            continue
        mean = sums[a] / n
        for _ in range(n):
            update(state, a, mean)
    state.t = t
    return state


def random_state(rng, k, extra_pulls, rewards=(0.0, 1.0)):
    # every arm pulled once, then ``extra_pulls`` pulls of arms drawn with
    # random (uneven) probabilities, so that pull counts differ widely; each
    # reward is drawn uniformly from ``rewards``
    state = PolicyState.fresh(k)
    for arm in list(range(k)) + [int(a) for a in rng.choice(k, size=extra_pulls, p=rng.dirichlet(np.ones(k)))]:
        update(state, arm, rewards[int(rng.integers(0, len(rewards)))])
    return state


def test_unpulled_arm_raises():
    state = PolicyState.fresh(2)
    update(state, 0, 0.5)
    with pytest.raises(ValueError):
        indices(PolicySpec("ucb"), state)


def test_switch_equals_moss_branch_exactly():
    t_hor = 100
    sw = PolicySpec("klucb-switch", horizon=t_hor)
    mo = PolicySpec("moss", horizon=t_hor)
    state = make_state([30, 8], [21.0, 3.2], 38)
    f = switch_value(t_hor, 2, 0.2)
    assert np.all(state.counts > f)
    assert np.array_equal(indices(sw, state), indices(mo, state))


def test_klucb_threshold_zero_returns_mean():
    t_hor = 20
    spec = PolicySpec("klucb", horizon=t_hor)
    state = make_state([10, 10], [7.0, 3.0], 20)
    assert indices(spec, state)[0] == pytest.approx(0.7, abs=1e-12)


def test_gauss_index_is_moss_with_matching_constant():
    # 2 sigma^2 = 1/2 at sigma = 1/2, so the indices coincide exactly
    state = make_state([5, 3], [2.5, 2.1], 8)
    gauss = PolicySpec("klucb-gauss", sigma=0.5, horizon=100)
    mo = PolicySpec("moss", horizon=100)
    assert indices(gauss, state) == pytest.approx(indices(mo, state), abs=1e-15)


def test_ucb_classic_flag():
    state = make_state([4, 4], [2.0, 2.0], 8)
    idx = indices(PolicySpec("ucb"), state)[0]
    idx_classic = indices(PolicySpec("ucb", ucb_classic=True), state)[0]
    assert idx == pytest.approx(0.5 + math.sqrt(math.log(8) / 8.0), abs=1e-12)
    assert idx_classic == pytest.approx(0.5 + math.sqrt(2.0 * math.log(8) / 4.0), abs=1e-12)


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
            u_kl, u_sw, u_m = (indices(s, state) for s in (kl_t, sw_t, mo_t))
            assert np.all(u_kl <= u_sw + 1e-9)
            assert np.all(u_sw <= u_m + 1e-9)
            u_kla, u_swa, u_ma = (indices(s, state) for s in (kl_a, sw_a, mo_a))
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
        assert state.t <= t_hor
        assert np.all(indices(kl_a, state) <= indices(kl_t_phi, state) + 1e-9)
        assert np.all(indices(mo_a, state) <= indices(mo_t_phi, state) + 1e-9)


def test_imed_prefers_undersampled_equal_mean_arm():
    # equal means: the divergence term vanishes, leaving ln N; the arm
    # with fewer pulls gets the smaller score, so the larger index -score,
    # and is selected
    state = make_state([20, 5], [10.0, 2.5], 25)
    spec = PolicySpec("imed")
    s0, s1 = indices(spec, state)
    assert s1 > s0
    assert select_arm(spec, state, tie_u=0.0) == 1


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
    # Bernoulli branch (means only, its KL cells queued and then inverted)
    # compute the same divergence, by the same formulas, to the bit
    spec = PolicySpec(family, **kwargs)
    ctx = _vector._Ctx(spec)
    rng = np.random.default_rng(24)
    for _ in range(40):
        state = random_state(rng, int(rng.integers(2, 5)), int(rng.integers(0, 250)))
        empirical = _vector._indices(ctx, state.counts, state.sums, state.t, state.dists)[0]
        pending = []
        bernoulli = _vector._indices(ctx, state.counts, state.sums, state.t, None, pending)[0]
        if pending:  # imed, and a switch with every arm past its threshold, queue nothing
            _vector._invert_pending(pending)
        assert np.array_equal(empirical, bernoulli)


def test_binned_law_on_zero_takes_its_own_mean():
    # rewards 0.004 round to the atom 0 at bins = 50, so arm 0's law is the
    # point mass at 0 while s/n = 0.004; arm 1's law {0.6} is not binary
    state = PolicyState.fresh(2, bins=50)
    for arm, reward, pulls in ((0, 0.004, 2), (1, 0.6, 3)):
        for _ in range(pulls):
            update(state, arm, reward)
    law = state.dists[0]
    assert law.values.tolist() == [0.0] and state.sums[0, 0] / state.counts[0, 0] == 0.004
    n = state.counts
    d = _vector._explo("log_plus", state.t / (2 * n)) / n
    klucb = indices(PolicySpec("klucb-anytime"), state)
    assert klucb[0] == -math.expm1(-d[0, 0]) == klucb_index(law, d[0, 0])
    assert klucb[1] == klucb_index(state.dists[1], d[0, 1])
    pmax = np.clip((state.sums / n).max(axis=1), 1e-9, 1.0 - 1e-9)
    kl = np.array([[_bern_kl(0.0, pmax[0]), 0.0]])
    assert np.array_equal(indices(PolicySpec("imed"), state), (-(n * kl + np.log(n)))[0])


# ---------------------------------------------------------------------------
# selection


def test_select_strict_argmax():
    state = make_state([3, 3], [2.7, 0.6], 6)
    assert select_arm(PolicySpec("ucb"), state, tie_u=0.99) == 0


def test_tie_break_is_uniform():
    state = make_state([5, 5, 5], [2.0, 2.0, 2.0], 15)
    spec = PolicySpec("ucb")
    rng = np.random.default_rng(23)
    picks = np.array([select_arm(spec, state, tie_u=float(rng.random())) for _ in range(10_000)])
    freq = np.bincount(picks, minlength=3) / picks.size
    se = math.sqrt((1 / 3) * (2 / 3) / picks.size)
    assert np.all(np.abs(freq - 1.0 / 3.0) <= 3.0 * se)


def test_argmax_invariant_to_constant_mean_shift():
    # MOSS index = mean + bonus(n); shifting every mean by a constant
    # shifts every index equally and keeps the argmax set
    spec = PolicySpec("moss", horizon=100)
    base = make_state([4, 9, 2], [2.0, 5.4, 0.6], 15)
    shifted = make_state([4, 9, 2], [2.0 + 4 * 0.1, 5.4 + 9 * 0.1, 0.6 + 2 * 0.1], 15)
    assert select_arm(spec, base, tie_u=0.5) == select_arm(spec, shifted, tie_u=0.5)


def test_determinism_for_fixed_seed_and_rewards():
    bandit = BanditInstance((Bernoulli(0.6), Bernoulli(0.5)))
    spec = PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0)

    def run():
        reward_rng = np.random.default_rng(77)
        tie_rng = np.random.default_rng(5)
        state = PolicyState.fresh(2)
        actions = []
        for step in range(1, 200):
            arm = step - 1 if step <= 2 else select_arm(spec, state, float(tie_rng.random()))
            update(state, arm, float(bandit.arms[arm].quantile(reward_rng.random())))
            actions.append(arm)
        return actions

    assert run() == run()


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
    state = PolicyState.fresh(k)
    for arm in [0, *range(twins, k)] + [int(a) for a in rng.choice([0, *range(twins, k)], size=extra_pulls)]:
        x = float(rng.choice([0.0, 1.0, rng.random()]))
        for a in range(twins) if arm == 0 else (arm,):
            update(state, a, x)
    return state


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_maximises_its_index(family):
    # one score direction: select_arm is the rank rule's argmax of indices,
    # and imed's index is its score negated, -(N kinf + ln N)
    spec = PolicySpec(family, horizon=400) if family in ("moss", "klucb", "klucb-switch") else PolicySpec(family)
    rng = np.random.default_rng(43)
    tied_states = 0
    for _ in range(30):
        state = random_state_with_twins(rng, int(rng.integers(2, 6)), int(rng.integers(0, 120)))
        idx = indices(spec, state)
        tied_states += int(np.count_nonzero(idx == idx.max()) > 1)
        for u in rng.random(4):
            assert select_arm(spec, state, float(u)) == _rank_rule(idx[None], u, False)[0]
        if family == "imed":
            n = state.counts[0]
            mean = state.sums[0] / n
            pmax = float(np.clip(mean.max(), 1e-9, 1.0 - 1e-9))
            kl = np.array([kinf(d, pmax).value if m < pmax else 0.0 for d, m in zip(state.dists, mean)])
            assert np.array_equal(idx, -(n * kl + np.log(n)))
    assert tied_states > 0
