"""Slow but obviously-correct references that the library's inversions are
tested against.  They are independent implementations, not used by the
library itself."""

import math


def exp_kl_index(mean_hat: float, threshold: float) -> float:
    """Upper-confidence mean for the exponential family, clamped to [0, 1],
    by bisection.

    Solves for the largest m >= mean_hat with
    mean_hat/m - 1 + ln(m / mean_hat) <= threshold (the exponential KL on
    means), then clamps the root for use as a [0, 1] reward index.
    """
    if mean_hat <= 0.0:
        raise ValueError("mean_hat must be positive")
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    if threshold == 0.0:
        return min(mean_hat, 1.0)

    def div(m: float) -> float:
        return mean_hat / m - 1.0 + math.log(m / mean_hat)

    lo = mean_hat
    hi = mean_hat * math.exp(1.0 + threshold)  # div(hi) > threshold
    for _ in range(80):
        if hi - lo < 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        if div(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return min(lo, 1.0)
