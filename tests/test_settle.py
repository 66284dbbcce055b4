"""The simulation loop's settle pass: each step's queued Bernoulli-KL cells
are filled so that every run's argmax and tie set are those of full
evaluation, inverting only the cells that one forward KL test against the
run's best exact score cannot decide."""

import numpy as np
import pytest

from bandit_switch import BanditInstance, Bernoulli, Dirac, Discrete, PolicySpec, run_seed
from bandit_switch import _vector
from bandit_switch.kinf import bernoulli_kl
from oracles import full_evaluation

TIE_US = (0.0, 0.3, 0.6, 0.999)


def settled_and_full(exact, cells, p, d):
    """The (runs, K) arm-major score buffer ``exact`` with its flat cells
    ``cells`` (of ``exact.T``) filled by the settle pass, and by full
    inversion."""
    settled = np.array(exact, dtype=float, order="F")
    full = settled.copy(order="F")
    cells, p, d = (np.asarray(x) for x in (cells, p, d))
    settled.T.put(cells, np.nan)  # left unfilled, as the loop leaves them
    _vector._settle(settled, cells, p.astype(float), d.astype(float))
    full.T.put(cells, _vector.bern_klucb(p.astype(float), d.astype(float)))
    return settled, full


def assert_settles_like_full_evaluation(exact, cells, p, d):
    settled, full = settled_and_full(exact, cells, p, d)
    assert not np.isnan(settled).any()
    tied = full == full.max(axis=1, keepdims=True)
    assert np.array_equal(settled == settled.max(axis=1, keepdims=True), tied)
    finite = np.isfinite(settled)
    assert np.array_equal(settled[finite], full[finite])  # every value put is exact
    for u in TIE_US:
        assert np.array_equal(_vector._tie_break(settled, u), _vector._tie_break(full, u))
    return settled


def test_a_best_score_of_one_ties_with_a_cell_whose_inversion_rounds_to_one():
    # arm 0 at p = 1 takes the closed form 1.0; arm 1's Newton value rounds
    # to 1.0; arm 2 is far below
    assert _vector.bern_klucb(np.array([0.999]), np.array([50.0]))[0] == 1.0
    settled = assert_settles_like_full_evaluation(np.zeros((1, 3)), [0, 1, 2], [1.0, 0.999, 0.5], [0.3, 50.0, 0.01])
    assert settled[0, :2].tolist() == [1.0, 1.0]


def test_runs_whose_every_cell_is_general_are_inverted():
    rng = np.random.default_rng(5)
    runs, k = 6, 3
    p, d = rng.uniform(0.05, 0.95, runs * k), rng.uniform(1e-3, 0.5, runs * k)
    settled = assert_settles_like_full_evaluation(np.zeros((runs, k)), np.arange(runs * k), p, d)
    assert np.isfinite(settled).all()


def test_a_cell_whose_index_equals_the_best_exact_score_stays_tied():
    # the best exact score (arm 0) is the bits of arm 1's inversion, whose
    # forward slack is a rounding away from 0; arm 2 is a cell far below
    rng = np.random.default_rng(7)
    runs = 400
    p, d = rng.uniform(0.01, 0.99, runs), 10.0 ** rng.uniform(-8, 0.5, runs)
    exact = np.zeros((runs, 3))
    exact[:, 0] = _vector.bern_klucb(p, d)
    cells = np.concatenate([runs + np.arange(runs), 2 * runs + np.arange(runs)])
    low = np.full(runs, 1e-3)
    settled = assert_settles_like_full_evaluation(exact, cells, np.concatenate([p, low]), np.concatenate([d, low]))
    assert (settled[exact[:, 0] < 1.0 - 1e-9, 2] == -np.inf).all()  # a best score near 1 sends all to Newton


@pytest.mark.parametrize("d", [1e-20, 1e-12, 1e-3])
def test_a_mean_above_the_best_score_by_less_than_the_margin(d):
    b = 0.6
    exact = np.array([[b, 0.0, 0.0]])
    settled = assert_settles_like_full_evaluation(exact, [1, 2], [b + 5e-10, 0.3], [d, 0.01])
    assert settled[0, 2] == -np.inf


def test_one_arm():
    settled = assert_settles_like_full_evaluation(np.zeros((3, 1)), [0, 1, 2], [0.4, 0.0, 0.7], [0.1, 0.2, 0.0])
    assert settled[:, 0].tolist() == [np.inf, -np.expm1(-0.2), 0.7]


def test_two_cells_above_the_best_score_are_both_inverted():
    # roots near 0.7 and 0.8 both lie above the exact 0.5: the larger,
    # arm 2, is the argmax at every tie uniform
    d = np.array([0.2, 0.09])
    exact = np.array([[0.5, 0.0, 0.0]])
    settled = assert_settles_like_full_evaluation(exact, [1, 2], [0.3, 0.6], d)
    assert np.isfinite(settled).all() and settled[0, 2] > settled[0, 1] > 0.5


def test_a_cell_above_beside_one_within_the_margin_are_both_inverted():
    # arm 1's root lies 1e-6 above B = 0.5, past the margin; arm 2's mean
    # sits just below B with a budget inside the margin, and its root,
    # about 4.5e-5 above B, is the argmax
    b = 0.5
    p, d = [0.3, b - 1e-12], [bernoulli_kl(0.3, b + 1e-6), 4e-9]
    settled = assert_settles_like_full_evaluation(np.array([[b, 0.0, 0.0]]), [1, 2], p, d)
    assert np.isfinite(settled).all() and settled[0, 2] > settled[0, 1] > b


def test_a_best_score_above_one():
    # a MOSS score may pass 1, no Bernoulli-KL index does; the test runs
    # at 1 - 1e-9, which arm 1's index passes
    settled = assert_settles_like_full_evaluation(np.array([[1.2, 0.0, 0.0]]), [1, 2], [0.999, 0.5], [50.0, 0.3])
    assert settled[0, 2] == -np.inf


# ---------------------------------------------------------------------------
# replay against full evaluation


def random_roster(rng, horizon):
    specs = (
        PolicySpec("ucb"),
        PolicySpec("moss-anytime"),
        PolicySpec("klucb", horizon=horizon),
        PolicySpec("klucb-anytime", exploration="augmented_phi"),
        PolicySpec("klucb-anytime"),
        PolicySpec("klucb-switch", horizon=horizon),
        PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0),
        PolicySpec("imed"),
    )
    picks = rng.choice(len(specs), size=int(rng.integers(1, 4)), replace=False)
    return [specs[i] for i in sorted(picks)]


def random_arms(rng, k, path):
    if path == "bernoulli":  # means on a 0.05 grid, so some arms tie and some sit at 0 or 1
        return tuple(Bernoulli(float(x)) for x in rng.integers(0, 21, k) / 20)
    if path == "empirical":  # laws on {0, 1} of every kind
        kinds = (lambda x: Bernoulli(x), lambda x: Discrete((0.0, 1.0), (1.0 - x, x)), lambda x: Dirac(float(x > 0.5)))
        return tuple(kinds[int(rng.integers(3))](float(x)) for x in rng.integers(0, 11, k) / 10)
    # bins: rewards 0.2 and 0.7 round to the atoms 0 and 1 at bins = 1, so
    # a law's mean differs from s/n; at bins = 2 the three-atom arms hold
    # laws off {0, 1}, which take the kinf branch beside the binary ones
    return tuple(
        Discrete((0.2, 0.7), (1.0 - x, x)) if i % 2 else Discrete((0.0, 0.5, 1.0), (0.5 - x / 2, 0.5, x / 2))
        for i, x in enumerate(rng.uniform(0.1, 0.9, k))
    )


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("path", ["bernoulli", "empirical", "bins"])
@pytest.mark.parametrize("k", [2, 3, 10, 50])
def test_settled_simulate_replays_full_evaluation(k, path, case):
    rng = np.random.default_rng([k, case, len(path)])
    horizon = k + int(rng.integers(60, 200))
    bandit = BanditInstance(random_arms(rng, k, path))
    specs = random_roster(rng, horizon)
    width = int(rng.integers(1, 7))
    seeds = [run_seed(int(rng.integers(2**32)), i, r) for i in range(len(specs)) for r in range(width)]
    bins = int(rng.integers(1, 3)) if path == "bins" else None
    empirical = path != "bernoulli"
    _, actions = _vector.simulate(
        bandit, specs, horizon, seeds, [horizon], record_actions=True, empirical=empirical, bins=bins
    )
    assert np.array_equal(actions, full_evaluation(bandit, specs, horizon, seeds, empirical, bins))


# ---------------------------------------------------------------------------
# the work it saves


def test_fig1_left_inverts_under_two_percent_of_its_general_cells(monkeypatch):
    # fig1-left's arms, roster and base seed, 200 runs of each policy for
    # 600 steps, as one batch
    general, inverted = [0], [0]
    settle, invert = _vector._settle, _vector.bern_klucb

    def counting_settle(scores, cells, p, d):
        general[0] += np.count_nonzero((d > 0.0) & (p > 0.0) & (p < 1.0))
        settle(scores, cells, p, d)

    def counting_invert(p, d):
        inverted[0] += p.size
        return invert(p, d)

    monkeypatch.setattr(_vector, "_settle", counting_settle)
    monkeypatch.setattr(_vector, "bern_klucb", counting_invert)
    roster = (
        PolicySpec("ucb"),
        PolicySpec("moss-anytime"),
        PolicySpec("klucb-anytime"),
        PolicySpec("klucb-switch-anytime", switch_exponent=8.0 / 9.0),
        PolicySpec("imed"),
    )
    seeds = [run_seed(20_240_301, i, r) for i in range(len(roster)) for r in range(200)]
    _vector.simulate(BanditInstance((Bernoulli(0.9), Bernoulli(0.8))), roster, 600, seeds, [600])
    assert general[0] > 100_000
    assert 0 < inverted[0] < 0.02 * general[0], (inverted[0], general[0])
