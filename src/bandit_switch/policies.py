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

The exploration function is a setting of every family but ucb and imed,
which read none: ``log_plus`` is the
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

# The settings each family reads, in field order.  Every family reads its
# ``family`` and ``label``; a setting off its row must keep its default.
_READS = {
    "ucb": (),
    "moss": ("horizon", "exploration"),
    "moss-anytime": ("exploration",),
    "klucb": ("horizon", "exploration"),
    "klucb-anytime": ("exploration",),
    "klucb-switch": ("horizon", "exploration", "switch_exponent"),
    "klucb-switch-anytime": ("exploration", "switch_exponent"),
    "imed": (),
    "klucb-exp": ("horizon", "exploration"),
    "klucb-gauss": ("horizon", "exploration", "sigma"),
}
FAMILIES = tuple(_READS)

EXPLORATIONS = ("log_plus", "augmented_phi")

_NEEDS_HORIZON = {"moss", "klucb", "klucb-switch"}
_NEEDS_DISTS = {"klucb", "klucb-anytime", "klucb-switch", "klucb-switch-anytime", "imed"}


@dataclass(frozen=True)
class PolicySpec:
    """Configuration of one index policy.

    A family reads the settings of its row in ``_READS`` and rejects any
    other one set off its default.  ``horizon`` is required for the
    non-anytime families (moss, klucb, klucb-switch), and optional for
    klucb-exp/klucb-gauss, which use the horizon ratio when it is set and
    the running time ratio otherwise.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in self._keys() and value != f.default:
                raise ValueError(f"family {self.family!r} takes no {f.name}, got {value!r}")
        if self.exploration not in EXPLORATIONS:
            raise ValueError(f"unknown exploration {self.exploration!r}")
        if self.family in _NEEDS_HORIZON and self.horizon is None:
            raise ValueError(f"family {self.family!r} requires a horizon")
        if self.horizon is not None:
            object.__setattr__(self, "horizon", positive_int(self.horizon, "policy horizon"))
        if not 0.0 < self.switch_exponent < 1.0:
            raise ValueError("switch exponent must lie in (0, 1)")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.label is not None and not (isinstance(self.label, str) and self.label):
            raise ValueError(f"policy label must be a non-empty string, got {self.label!r}")

    def _keys(self) -> tuple:
        """The fields the family reads, in field order."""
        return ("family", *_READS[self.family], "label")

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.family

    @property
    def needs_distributions(self) -> bool:
        return self.family in _NEEDS_DISTS

    def to_config(self) -> dict:
        return {name: getattr(self, name) for name in self._keys() if getattr(self, name) is not None}

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
