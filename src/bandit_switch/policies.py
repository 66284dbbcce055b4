"""Index policies for bounded bandits.

Families
--------
- ``ucb``: empirical mean plus sqrt(ln t / (2 N)); the classical
  sqrt(2 ln t / N) bonus is available behind ``ucb_classic``.
- ``moss`` / ``moss-anytime``: mean plus
  sqrt(explo(ratio / N) / (2 N)) with ratio = T/K, resp. t/K.
- ``klucb`` / ``klucb-anytime``: empirical-likelihood upper-confidence
  mean at budget explo(ratio / N) / N.
- ``klucb-switch`` / ``klucb-switch-anytime``: the klucb index while an
  arm's pull count is below the switch threshold, the moss index after.
  The anytime switch is re-evaluated every step, so an arm may switch
  back and forth.
- ``imed``: N * kinf(dist, max empirical mean) + ln N, minimised, so its
  index is that score negated.
- ``klucb-exp`` / ``klucb-gauss``: parametric comparators driven by the
  exponential, resp. Gaussian, KL on means.

The exploration function is a configuration axis: ``log_plus`` is the
plain positive-part logarithm, ``augmented_phi`` the inflated variant
x -> ln_+(x (1 + ln_+^2 x)) used by the theoretical anytime indices.

Every family maximises its index.  Every index is computed by the kernel
in :mod:`._vector`, which its simulation loop shares; this module holds
the policy configuration, the one-run state, and the one-run entry points
:func:`indices` and :func:`select_arm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ._vector import _Ctx, _indices, _tie_break, log_plus, moss_index, phi, switch_threshold, switch_value
from .distributions import EmpiricalDistribution, positive_int

__all__ = [
    "FAMILIES",
    "EXPLORATIONS",
    "PolicySpec",
    "PolicyState",
    "log_plus",
    "phi",
    "moss_index",
    "switch_threshold",
    "switch_value",
    "indices",
    "select_arm",
    "update",
]

FAMILIES = (
    "ucb",
    "moss",
    "moss-anytime",
    "klucb",
    "klucb-anytime",
    "klucb-switch",
    "klucb-switch-anytime",
    "imed",
    "klucb-exp",
    "klucb-gauss",
)

EXPLORATIONS = ("log_plus", "augmented_phi", "log_t")

_NEEDS_HORIZON = {"moss", "klucb", "klucb-switch"}
_SWITCH = {"klucb-switch", "klucb-switch-anytime"}
_NEEDS_DISTS = {"klucb", "klucb-anytime", "klucb-switch", "klucb-switch-anytime", "imed"}


@dataclass(frozen=True)
class PolicySpec:
    """Configuration of one index policy.

    ``horizon`` is required for the non-anytime families (moss, klucb,
    klucb-switch) and ignored by the others except klucb-exp/klucb-gauss,
    which use the horizon ratio when it is set and the running time ratio
    otherwise.
    """

    family: str
    horizon: Optional[int] = None
    exploration: str = "log_plus"
    switch_exponent: float = 0.2
    sigma: float = 0.1
    ucb_classic: bool = False
    label: Optional[str] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown policy family {self.family!r}")
        if self.family == "ucb":
            object.__setattr__(self, "exploration", "log_t")
        elif self.exploration == "log_t":
            raise ValueError("log_t exploration is specific to the ucb family")
        elif self.exploration not in EXPLORATIONS:
            raise ValueError(f"unknown exploration {self.exploration!r}")
        if self.family in _NEEDS_HORIZON and self.horizon is None:
            raise ValueError(f"family {self.family!r} requires a horizon")
        if self.horizon is not None:
            object.__setattr__(self, "horizon", positive_int(self.horizon, "policy horizon"))
        if self.family in _SWITCH and not 0.0 < self.switch_exponent < 1.0:
            raise ValueError("switch exponent must lie in (0, 1)")
        if self.family == "klucb-gauss" and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.family

    @property
    def needs_distributions(self) -> bool:
        return self.family in _NEEDS_DISTS

    def to_config(self) -> dict:
        cfg: dict = {"family": self.family}
        if self.horizon is not None:
            cfg["horizon"] = self.horizon
        if self.family != "ucb":
            cfg["exploration"] = self.exploration
        if self.family in _SWITCH:
            cfg["switch_exponent"] = self.switch_exponent
        if self.family == "klucb-gauss":
            cfg["sigma"] = self.sigma
        if self.family == "ucb" and self.ucb_classic:
            cfg["ucb_classic"] = True
        if self.label is not None:
            cfg["label"] = self.label
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "PolicySpec":
        if not isinstance(cfg, dict) or "family" not in cfg:
            raise ValueError(f"policy config must be a dict with a 'family' key, got {cfg!r}")
        extra = set(cfg) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} in policy config")
        return cls(**cfg)


@dataclass
class PolicyState:
    """Per-run sufficient statistics: pull counts and reward sums as (1, K)
    float arrays (the index kernel's one-run shape), empirical
    distributions, and the global step counter.  Owned by a single run."""

    counts: np.ndarray
    sums: np.ndarray
    dists: list
    t: int = 0

    @classmethod
    def fresh(cls, k: int, *, bins: int | None = None) -> "PolicyState":
        if k < 1:
            raise ValueError("need at least one arm")
        return cls(
            counts=np.zeros((1, k)),
            sums=np.zeros((1, k)),
            dists=[EmpiricalDistribution(bins=bins) for _ in range(k)],
        )

    def mean(self, arm: int) -> float:
        n = self.counts[0, arm]
        if n == 0:
            raise ValueError(f"arm {arm} has not been pulled yet")
        return float(self.sums[0, arm] / n)


def update(state: PolicyState, arm: int, reward: float) -> PolicyState:
    """Record one observation; mutates and returns ``state``.

    Counts and sums always accumulate the exact reward.  When the state's
    distributions were built with ``bins``, only the atom entering the
    empirical distribution is rounded (that accumulator is the divergence
    solver's cost center); the binned mean then deviates from the exact
    one by at most 1/(2 bins).
    """
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward {reward!r} outside [0, 1]")
    state.counts[0, arm] += 1.0
    state.sums[0, arm] += reward
    state.dists[arm]._push(reward)
    state.t += 1
    return state


def indices(spec: PolicySpec, state: PolicyState) -> np.ndarray:
    """Index of every arm at the current state, shape (K,), from the kernel
    shared with the vectorised engine.  Every family maximises: imed's index
    is -(N kinf + ln N), its score negated."""
    if not state.counts.all():
        raise ValueError(f"arm {int(np.argmin(state.counts))} has not been pulled yet")
    return _indices(_Ctx(spec), state.counts, state.sums, state.t, state.dists)[0]


def select_arm(spec: PolicySpec, state: PolicyState, tie_u: float) -> int:
    """Arm choice: argmax of the family index, ties broken by the uniform
    ``tie_u``: among m tied arms, the i-th in arm order for tie_u in
    [i/m, (i+1)/m)."""
    return int(_tie_break(indices(spec, state)[None], tie_u)[0])
