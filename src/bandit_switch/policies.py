"""Index policies for bounded bandits.

Families
--------
- ``ucb``: empirical mean plus sqrt(ln t / (2 N)).
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
the policy configuration and :func:`indices`, the kernel's public entry
point on a state of pull counts and reward sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ._vector import _Ctx, _indices, log_plus, moss_index, phi, switch_threshold, switch_value
from .distributions import positive_int

__all__ = [
    "FAMILIES",
    "EXPLORATIONS",
    "PolicySpec",
    "log_plus",
    "phi",
    "moss_index",
    "switch_threshold",
    "switch_value",
    "indices",
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
_READS_HORIZON = _NEEDS_HORIZON | {"klucb-exp", "klucb-gauss"}
_SWITCH = {"klucb-switch", "klucb-switch-anytime"}
_NEEDS_DISTS = {"klucb", "klucb-anytime", "klucb-switch", "klucb-switch-anytime", "imed"}


@dataclass(frozen=True)
class PolicySpec:
    """Configuration of one index policy.

    ``horizon`` is required for the non-anytime families (moss, klucb,
    klucb-switch), optional for klucb-exp/klucb-gauss, which use the
    horizon ratio when it is set and the running time ratio otherwise, and
    rejected by the others, which never read it.
    """

    family: str
    horizon: Optional[int] = None
    exploration: str = "log_plus"
    switch_exponent: float = 0.2
    sigma: float = 0.1
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
            if self.family not in _READS_HORIZON:
                raise ValueError(f"family {self.family!r} takes no horizon, got {self.horizon!r}")
            object.__setattr__(self, "horizon", positive_int(self.horizon, "policy horizon"))
        if self.family in _SWITCH and not 0.0 < self.switch_exponent < 1.0:
            raise ValueError("switch exponent must lie in (0, 1)")
        if self.family == "klucb-gauss" and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.label is not None and not (isinstance(self.label, str) and self.label):
            raise ValueError(f"policy label must be a non-empty string, got {self.label!r}")

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


def indices(spec: PolicySpec, n: np.ndarray, s: np.ndarray, t: int, dists=None) -> np.ndarray:
    """Index of every (run, arm) at time ``t``, shape (runs, K), from pull
    counts ``n`` and reward sums ``s`` of that shape, by the kernel that
    the simulation loop runs.  ``dists``, each cell's empirical
    distribution in arm-major order (``arm * runs + run``), selects the
    divergence branch of the empirical-likelihood families; without it
    they take the Bernoulli branch, exact for arms supported on {0, 1}.
    Every family maximises: imed's index is -(N kinf + ln N), its score
    negated."""
    if not n.all():
        raise ValueError(f"arm {int(np.argmin(n.min(axis=0)))} has not been pulled yet")
    return _indices(_Ctx(spec), n, s, t, dists)
