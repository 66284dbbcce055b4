"""Reward models on [0, 1] and the weighted-atom empirical distribution.

Arms are distributions supported by [0, 1].  Unbounded models (exponential,
Gaussian) are truncated by *clamping*: a draw ``X`` becomes
``min(max(X, 0), 1)``, which piles mass onto the endpoints.  Model
parameters are pre-truncation quantities and ``true_mean`` returns the
exact post-clamping expectation.

All sampling is routed through each model's ``quantile`` (inverse CDF), so
a single uniform variate fully determines a reward.  This is what lets the
simulation engines replay any run from a counter-based key.

The configuration error type and the integer checks live here too, at
the bottom of the import graph, so that arms, policies, scenarios and the
command line share them.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence, Union, get_args

import numpy as np

__all__ = [
    "EmpiricalDistribution",
    "Bernoulli",
    "TruncatedExponential",
    "TruncatedGaussian",
    "Dirac",
    "Discrete",
    "ArmModel",
    "BanditInstance",
    "arm_from_config",
    "ConfigurationError",
    "integer",
    "positive_int",
]

ArrayLike = Union[float, np.ndarray]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class ConfigurationError(ValueError):
    """Invalid scenario or experiment configuration."""


def integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an integer (at least ``least`` when given), from an
    integer or a decimal string; anything else, a float such as 2.5 or
    1e400 included, raises a :class:`ConfigurationError` naming ``name``."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigurationError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def positive_int(value, name: str) -> int:
    """``value`` as an integer >= 1; see :func:`integer`."""
    return integer(value, name, 1)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


class EmpiricalDistribution:
    """Multiset of observations in [0, 1], stored as sorted weighted atoms.

    The canonical form (strictly increasing atom values, positive integer
    counts) makes ``values``, ``counts``, ``weights`` and ``==`` independent
    of observation order.  ``mean`` divides a running sum of the
    observations, so its last bits may depend on the order.

    Parameters
    ----------
    values, counts:
        Parallel sequences defining the atoms.  Values must be strictly
        increasing and lie in [0, 1]; counts must be positive integers.
    """

    __slots__ = ("_values", "_counts", "_total", "_sum")

    def __init__(self, values: Sequence[float] = (), counts: Sequence[int] = ()):
        v = np.asarray(values, dtype=float)
        c = np.asarray(counts, dtype=float)
        if v.shape != c.shape or v.ndim != 1:
            raise ValueError("values and counts must be 1-d and of equal length")
        if v.size:
            if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails too
                raise ValueError("atom values must lie in [0, 1]")
            if np.any(np.diff(v) <= 0.0):
                raise ValueError("atom values must be strictly increasing")
            if not np.all((c >= 1.0) & (c < 2.0**53) & (c == np.floor(c))):  # NaN fails too
                raise ValueError("atom counts must be whole numbers >= 1")
        c = c.astype(np.int64)
        self._values = v
        self._counts = c
        self._total = int(c.sum())
        self._sum = float(np.dot(v, c)) if v.size else 0.0

    @classmethod
    def from_observations(cls, xs: Iterable[float]) -> "EmpiricalDistribution":
        dist = cls()
        for x in xs:
            dist._push(float(x))
        return dist

    def _push(self, x: float) -> None:
        # In-place insertion; reserved for an owner that holds the only reference.
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"observation {x!r} outside [0, 1]")
        i = int(np.searchsorted(self._values, x))
        if i < self._values.size and self._values[i] == x:
            self._counts[i] += 1
        else:
            self._values = np.insert(self._values, i, x)
            self._counts = np.insert(self._counts, i, 1)
        self._total += 1
        self._sum += x

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def weights(self) -> np.ndarray:
        return self._counts / self._total

    @property
    def atoms(self) -> list[tuple[float, int]]:
        return [(float(v), int(c)) for v, c in zip(self._values, self._counts)]

    @property
    def total_count(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        if self._total == 0:
            raise ValueError("mean of an empty distribution")
        return self._sum / self._total

    def __len__(self) -> int:
        return self._values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmpiricalDistribution):
            return NotImplemented
        return (
            self._total == other._total
            and self._values.shape == other._values.shape
            and bool(np.all(self._values == other._values))
            and bool(np.all(self._counts == other._counts))
        )

    def __repr__(self) -> str:
        return f"EmpiricalDistribution(n={self._total}, atoms={len(self)})"


class _ArmLaw:
    """What an arm model derives from its dataclass fields, its ``kind``
    and, for a finite law, its ``support``, a pair (values, probs): the
    config echo, whether the law lives on {0, 1}, and the mean of a finite
    law, the fsum of its atoms.  Each model states its own ``quantile``;
    the truncated laws, which have no finite support, state a closed-form
    ``true_mean``."""

    support = None

    def true_mean(self) -> float:
        return math.fsum(v * p for v, p in zip(*self.support))

    @property
    def support_binary(self) -> bool:
        return self.support is not None and all(v in (0.0, 1.0) for v in self.support[0])

    def to_config(self) -> dict:
        # Tuples echo as lists, as JSON reads them back, so meta.json and the
        # verify report names print them as lists.
        cfg = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            cfg[f.name] = list(value) if isinstance(value, tuple) else value
        return cfg


@dataclass(frozen=True)
class Bernoulli(_ArmLaw):
    p: float
    kind = "bernoulli"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("Bernoulli parameter must lie in [0, 1]")

    @property
    def support(self) -> tuple:
        return (0.0, 1.0), (1.0 - self.p, self.p)

    def quantile(self, u: ArrayLike) -> ArrayLike:
        return np.where(u < self.p, 1.0, 0.0)


@dataclass(frozen=True)
class TruncatedExponential(_ArmLaw):
    """Exponential with pre-truncation expectation ``mean``, clamped to [0, 1]."""

    mean: float
    kind = "truncexp"

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError(f"pre-truncation mean must be positive and finite, got {self.mean!r}")

    def true_mean(self) -> float:
        # E[min(X, 1)] for X ~ Exp with mean theta.
        theta = self.mean
        return theta * (1.0 - math.exp(-1.0 / theta))

    def quantile(self, u: ArrayLike) -> ArrayLike:
        return np.minimum(-self.mean * np.log1p(-u), 1.0)


@dataclass(frozen=True)
class TruncatedGaussian(_ArmLaw):
    """Gaussian with pre-truncation mean/sigma, clamped to [0, 1]."""

    mean: float
    sigma: float
    kind = "truncgauss"

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"pre-truncation mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")

    def true_mean(self) -> float:
        # E[clip(X, 0, 1)] = P(X >= 1) + m (Phi(b) - Phi(a)) - s (pdf(b) - pdf(a))
        a = (0.0 - self.mean) / self.sigma
        b = (1.0 - self.mean) / self.sigma
        return (
            (1.0 - _norm_cdf(b))
            + self.mean * (_norm_cdf(b) - _norm_cdf(a))
            - self.sigma * (_norm_pdf(b) - _norm_pdf(a))
        )

    def quantile(self, u: ArrayLike) -> ArrayLike:
        from scipy.special import ndtri  # deferred: importing scipy costs about 0.3 s and 26 MiB

        return np.clip(self.mean + self.sigma * ndtri(u), 0.0, 1.0)


@dataclass(frozen=True)
class Dirac(_ArmLaw):
    value: float
    kind = "dirac"

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("Dirac value must lie in [0, 1]")

    @property
    def support(self) -> tuple:
        return (self.value,), (1.0,)

    def quantile(self, u: ArrayLike) -> ArrayLike:
        return np.full_like(np.asarray(u, dtype=float), self.value)


@dataclass(frozen=True)
class Discrete(_ArmLaw):
    """Finite distribution on [0, 1] atoms.

    Probabilities must sum to 1 within 1e-12; the constructor renormalises
    the residual.
    """

    values: tuple
    probs: tuple
    kind = "discrete"

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        p = tuple(float(x) for x in self.probs)
        if len(v) != len(p) or not v:
            raise ValueError("values and probs must be non-empty and of equal length")
        if any(not 0.0 <= x <= 1.0 for x in v):
            raise ValueError("atom values must lie in [0, 1]")
        if not all(x >= 0.0 for x in p):  # NaN fails too
            raise ValueError("probabilities must be non-negative")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", tuple(x / total for x in p))

    @property
    def support(self) -> tuple:
        return self.values, self.probs

    def quantile(self, u: ArrayLike) -> ArrayLike:
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]


ArmModel = Union[Bernoulli, TruncatedExponential, TruncatedGaussian, Dirac, Discrete]

_KINDS = {cls.kind: cls for cls in get_args(ArmModel)}


def arm_from_config(cfg: dict) -> ArmModel:
    """Build an arm model from its JSON-style configuration dict."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError(f"arm config must be a dict with a 'kind' key, got {cfg!r}")
    kind = cfg["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown arm kind {kind!r}")
    cls = _KINDS[kind]
    fields = {f.name for f in dataclasses.fields(cls)}
    extra = set(cfg) - fields - {"kind"}
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {kind!r} arm config")
    missing = fields - set(cfg)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in {kind!r} arm config")
    return cls(**{name: cfg[name] for name in fields})


@dataclass(frozen=True)
class BanditInstance:
    """A bandit problem: a tuple of arms with derived gap structure."""

    arms: tuple

    def __post_init__(self):
        if not self.arms:
            raise ValueError("a bandit instance needs at least one arm")
        object.__setattr__(self, "arms", tuple(self.arms))

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def means(self) -> np.ndarray:
        return np.array([a.true_mean() for a in self.arms])

    @property
    def mu_star(self) -> float:
        return float(self.means.max())

    @property
    def gaps(self) -> np.ndarray:
        m = self.means
        return m.max() - m

    def to_config(self) -> dict:
        return {"arms": [a.to_config() for a in self.arms]}

    @classmethod
    def from_config(cls, cfg: dict) -> "BanditInstance":
        if not isinstance(cfg, dict) or set(cfg) - {"arms"}:
            raise ValueError("bandit config must be a dict with only an 'arms' key")
        return cls(arms=tuple(arm_from_config(a) for a in cfg["arms"]))
