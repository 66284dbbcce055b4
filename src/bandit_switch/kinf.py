"""The empirical-likelihood divergence on [0, 1] and its index inversion.

For a distribution ``nu`` on [0, 1] and a target mean ``mu`` in (0, 1),
the quantity computed here is the smallest KL divergence from ``nu`` to
any distribution on [0, 1] whose mean exceeds ``mu``.  It admits a dual
representation as a one-dimensional concave maximisation,

    kinf(nu, mu) = max over lam in [0, 1] of
                   H(lam) = E[ ln(1 - lam (X - mu) / (1 - mu)) ],

which is what the solver below exploits: ``H`` is strictly concave with a
closed-form derivative, so a safeguarded Newton iteration on ``H'`` with a
bisection fallback converges quickly and never escapes its bracket.

The upper-confidence index used by the KL-UCB family is the inverse map
``sup { mu : kinf(nu, mu) <= threshold }``, computed by a safeguarded
Newton iteration in ``y = -ln(1 - mu)``: by the envelope identity the
slope of ``kinf`` in ``y`` is the maximiser ``lam*`` that each solve
returns, and the iteration starts at the Pinsker cap
``mean + sqrt(threshold / 2)``, at or above the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import EmpiricalDistribution

__all__ = [
    "KinfResult",
    "KinfWitness",
    "h_value",
    "h_derivative",
    "kinf",
    "kinf_weighted",
    "kinf_witness",
    "klucb_index",
    "bernoulli_kl",
]

# Search cap when the distribution has an atom at 1 (there H(1) = -inf).
_LAMBDA_CAP = 1.0 - 1e-12
_GRAD_TOL = 1e-11
_BRACKET_TOL = 1e-12
_MAX_ITER = 100
# klucb_index works in y = -ln(1 - mu): it stops once its bracket is
# narrower than _INDEX_TOL in mu, and an index above 1 - 1e-12 counts as 1.
_INDEX_TOL = 1e-13
_Y_SATURATED = -math.log(1e-12)


@dataclass(frozen=True)
class KinfResult:
    """Solver output: divergence value, maximiser, and convergence info."""

    value: float
    lambda_star: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class KinfWitness:
    """The distribution achieving the divergence: reweighted atoms of the
    input plus (possibly) extra mass at 1."""

    base_atoms: tuple
    mass_at_one: float


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in the open interval (0, 1), got {mu!r}")


def _bern_kl(p, q):
    """kl(p, q) between Bernoulli laws, elementwise: 0 ln(0/q) = 0, and
    p ln(p/0) = +inf for p > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0.0, p * np.log(p / q), 0.0)
        t2 = np.where(p < 1.0, (1.0 - p) * np.log((1.0 - p) / (1.0 - q)), 0.0)
    return t1 + t2


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    if p == q:
        return 0.0
    return float(_bern_kl(np.float64(p), np.float64(q)))


def _z(values: np.ndarray, mu: float) -> np.ndarray:
    return (values - mu) / (1.0 - mu)


def h_value(nu: EmpiricalDistribution, mu: float, lam: float) -> float:
    """The dual objective H(lam) = E[ln(1 - lam (X - mu)/(1 - mu))].

    Finite for lam < 1; equals -inf at lam = 1 iff ``nu`` has an atom whose
    z = (x - mu)/(1 - mu) rounds to 1: an atom at 1, or one an ulp below.
    """
    _check_mu(mu)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    z = _z(nu.values, mu)
    if lam == 1.0 and z.size and z[-1] >= 1.0:
        return -math.inf
    return float(np.dot(nu.weights, np.log1p(-lam * z)))


def h_derivative(nu: EmpiricalDistribution, mu: float, lam: float) -> float:
    """Closed-form H'(lam) = -E[ z / (1 - lam z) ] with z = (X-mu)/(1-mu).

    At lam = 1 with an atom at 1 (z rounds to 1, as in ``h_value``) the
    derivative diverges; a -inf sentinel is returned.
    """
    _check_mu(mu)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    z = _z(nu.values, mu)
    if lam == 1.0 and z.size and z[-1] >= 1.0:
        return -math.inf
    return -float(np.dot(nu.weights, z / (1.0 - lam * z)))


# Below this many atoms a plain-Python inner loop beats numpy call overhead.
_SMALL_ATOMS = 8


def kinf_weighted(values, weights, mu: float) -> KinfResult:
    """Core solver on raw (values, probability weights) arrays.

    Safeguarded Newton on H' over [0, 1]: the bracket is maintained by the
    sign of H' and a bisection step replaces any Newton step that would
    leave it.  Stops once |H'| < 1e-11 or the bracket is narrower than
    1e-12; never raises on slow convergence (``converged`` is reported).
    """
    _check_mu(mu)
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0:
        raise ValueError("kinf of an empty distribution")
    m = float(np.dot(v, w))
    if m >= mu:
        return KinfResult(0.0, 0.0, 0, True)

    atom_at_one = (float(v.max()) - mu) / (1.0 - mu) >= 1.0  # z rounds to 1 also an ulp below 1
    if v.size <= _SMALL_ATOMS:
        zs = [(x - mu) / (1.0 - mu) for x in v.tolist()]
        ws = w.tolist()

        def grad_curv(lam: float) -> tuple:
            d1 = 0.0
            d2 = 0.0
            for zi, wi in zip(zs, ws):
                t = zi / (1.0 - lam * zi)
                d1 -= wi * t
                d2 -= wi * t * t
            return d1, d2

        def objective(lam: float) -> float:
            return sum(wi * math.log1p(-lam * zi) for zi, wi in zip(zs, ws))

    else:
        z = _z(v, mu)

        def grad_curv(lam: float) -> tuple:
            t = z / (1.0 - lam * z)
            return -float(np.dot(w, t)), -float(np.dot(w, t * t))

        def objective(lam: float) -> float:
            return float(np.dot(w, np.log1p(-lam * z)))

    hi = _LAMBDA_CAP if atom_at_one else 1.0
    d_hi, _ = grad_curv(hi)
    if d_hi >= 0.0:
        # Maximum sits on the boundary; only reachable without an atom at 1.
        return KinfResult(objective(hi), hi, 0, True)

    lo = 0.0  # H'(0) = (mu - m)/(1 - mu) > 0 here
    lam = 0.5 * (lo + hi)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        d1, d2 = grad_curv(lam)
        if abs(d1) < _GRAD_TOL:
            converged = True
            break
        if d1 > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo < _BRACKET_TOL:
            converged = True
            break
        step = lam - d1 / d2  # d2 < 0 by strict concavity
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    lam = min(max(lam, 0.0), _LAMBDA_CAP if atom_at_one else 1.0)
    return KinfResult(max(objective(lam), 0.0), lam, iterations, converged)


def kinf(nu: EmpiricalDistribution, mu: float) -> KinfResult:
    """Divergence from ``nu`` to the mean->mu confidence set, with maximiser."""
    return kinf_weighted(nu.values, nu.weights, mu)


def kinf_witness(nu: EmpiricalDistribution, mu: float, result: KinfResult) -> KinfWitness:
    """Optimal distribution achieving ``result``: reweight each atom of
    ``nu`` by 1 / (1 - lam* (x - mu)/(1 - mu)) and park the remaining mass
    (non-zero only when lam* = 1) on the point 1."""
    _check_mu(mu)
    if not result.converged:
        raise ValueError("witness requires a converged solver result")
    lam = result.lambda_star
    v = nu.values
    z = _z(v, mu)
    if lam == 1.0 and z.size and z[-1] >= 1.0:
        raise ValueError("inconsistent result: lambda* = 1 with an atom at 1")
    w = nu.weights
    dens = 1.0 - lam * z
    base = w / dens
    mass_at_one = 1.0 - float(base.sum())
    if mass_at_one < 0.0:
        mass_at_one = 0.0
    return KinfWitness(
        base_atoms=tuple((float(x), float(b)) for x, b in zip(v, base)),
        mass_at_one=mass_at_one,
    )


def klucb_index(nu: EmpiricalDistribution, threshold: float) -> float:
    """Largest mean compatible with ``nu`` at the given divergence budget:
    sup { mu in [0, 1] : kinf(nu, mu) <= threshold }.

    Safeguarded Newton in y = -ln(1 - mu), where the envelope identity
    gives the slope d kinf / dy = lambda* of each solve.  The iteration
    starts at the Pinsker cap mean + sqrt(threshold / 2), which lies at or
    above the root, and keeps a bracket [lo, hi] from the sign of
    kinf - threshold; a Newton step that would leave it becomes a
    bisection step, and a step shorter than the tolerance is pushed just
    past the root so that the bracket closes from both sides to 1e-13 in
    mu.  The answer is the bracket's feasible end, so
    kinf(nu, index) <= threshold.  A root within 1e-12 of 1 returns 1,
    which is exact only for the point mass at 1.  The point mass at 0
    returns its closed form 1 - e^-threshold rounded to a double, as the
    vector engine's ``bern_klucb`` does, which may lie an ulp past the
    root.  A bracket still open
    after ``_MAX_ITER`` iterations raises a :class:`RuntimeError`.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    m = nu.mean
    if threshold == 0.0:
        return m
    if m >= 1.0:
        return 1.0
    if m <= 0.0:  # point mass at 0: kinf(nu, mu) = -ln(1 - mu)
        return -math.expm1(-threshold)
    lo = -math.log1p(-m)  # kinf = 0 there
    hi = _Y_SATURATED
    cap = m + math.sqrt(0.5 * threshold)
    y = min(-math.log1p(-cap), hi) if cap < 1.0 else hi
    for _ in range(_MAX_ITER):
        res = kinf(nu, -math.expm1(-y))
        excess = res.value - threshold
        if excess <= 0.0:
            lo = y
        else:
            hi = y
        if math.exp(-lo) - math.exp(-hi) <= _INDEX_TOL:  # mu(hi) - mu(lo)
            break
        # lambda* = 0 only where mu rounds to the mean; bisect there
        y_next = y - excess / res.lambda_star if res.lambda_star > 0.0 else lo
        nudge = 0.5 * _INDEX_TOL * math.exp(y)  # half the tolerance, as a step in y
        if abs(y_next - y) < nudge:
            y_next += -nudge if excess > 0.0 else nudge
        y = y_next if lo < y_next < hi else 0.5 * (lo + hi)
    else:
        raise RuntimeError(f"klucb_index: bracket not closed in {_MAX_ITER} iterations (mean {m!r}, threshold {threshold!r})")
    return 1.0 if lo >= _Y_SATURATED else -math.expm1(-lo)
