"""The index-policy family on a shared state: how the empirical-
likelihood, switch, and minimax indices relate, and when the switch
policy changes branch.  A state is one run's pull counts and reward sums,
arrays of shape (1, K), plus each arm's empirical distribution.

Run:  python demos/02_policy_indices.py
"""

import numpy as np

from bandit_switch import (
    BanditInstance,
    Bernoulli,
    EmpiricalDistribution,
    PolicySpec,
    indices,
    switch_threshold,
    switch_value,
)

rng = np.random.default_rng(12)
bandit = BanditInstance((Bernoulli(0.8), Bernoulli(0.6)))
horizon = 2000

print("Replaying one short history and printing every family's index on")
print("the same state.  The sandwich klucb <= switch <= moss always holds.")
print()

t = 40
rewards = ([], [])
for step in range(1, t + 1):
    arm = (step - 1) % 2 if step <= 2 else int(rng.integers(2))
    rewards[arm].append(float(bandit.arms[arm].quantile(rng.random())))
n = np.array([[len(xs) for xs in rewards]], dtype=float)
s = np.array([[sum(xs) for xs in rewards]])
dists = [EmpiricalDistribution.from_observations(xs) for xs in rewards]

specs = {
    "ucb": PolicySpec("ucb"),
    "moss (T known)": PolicySpec("moss", horizon=horizon),
    "klucb (T known)": PolicySpec("klucb", horizon=horizon),
    "switch (T known)": PolicySpec("klucb-switch", horizon=horizon),
    "moss-anytime": PolicySpec("moss-anytime"),
    "klucb-anytime": PolicySpec("klucb-anytime"),
    "switch-anytime": PolicySpec("klucb-switch-anytime"),
    "imed (-score)": PolicySpec("imed"),
}

print(f"state after t = {t} pulls: counts = {n[0].astype(int).tolist()}, "
      f"means = {[round(m, 3) for m in (s / n)[0].tolist()]}")
print()
print(f"{'family':>18} | {'arm 0':>10} | {'arm 1':>10}")
print("-" * 46)
for name, spec in specs.items():
    i0, i1 = indices(spec, n, s, t, dists)[0]
    print(f"{name:>18} | {i0:10.5f} | {i1:10.5f}")

print()
print("Switch thresholds (pull count at which an arm moves to the minimax")
print("index).  The theoretical rule floors (tau/K)^(1/5); the empirical")
print("rule floor(tau/K)^(8/9) delays the switch much further:")
print()
print(f"{'tau':>8} | {'f(tau, K=2), 1/5':>18} | {'f(tau, K=2), 8/9':>18}")
print("-" * 50)
for tau in (10, 100, 1000, 10_000, 100_000):
    f_theory = switch_threshold(tau, 2, 0.2)
    f_emp = switch_threshold(tau, 2, 8.0 / 9.0)
    print(f"{tau:>8} | {f_theory:>18} | {f_emp:>18}")

print()
print("Anytime switch on a growing history: the branch is re-evaluated at")
print("every step from the current pull count, so an arm can switch back.")
n0 = 0
last_branch = None
for t in range(1, 201):
    arm = (t - 1) % 2 if t <= 2 else int(rng.integers(2))
    rng.random()  # the reward's uniform; the branch reads only the pull count
    n0 += arm == 0
    if t < 3:
        continue
    f = switch_value(t, 2, 8.0 / 9.0)
    branch = "klucb" if n0 <= f else "moss"
    if branch != last_branch:
        print(f"  t = {t:>4}: arm 0 has {n0:>3} pulls, f(t, K) = {f:7.2f} -> {branch} branch")
        last_branch = branch
