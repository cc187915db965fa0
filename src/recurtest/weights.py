"""Gaussian weight measure calibrated from pairwise distances.

The integral statistics weight deviations by a product measure whose factors
are normal distribution functions centred at the mean pairwise distance with
the pairwise-distance spread as scale.  The normal is normalized to unit mass
(a genuine CDF); any global positive rescaling of the weight is irrelevant to
permutation decisions, and unit mass is what makes the closed-form survival
identities exact.  The small mass below zero is kept: the closed forms
integrate indicators over ``(value, +inf)`` and are exact regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from .exceptions import DegenerateWeightError, InvalidInputError


@dataclass(frozen=True)
class GaussianWeight:
    """Location/scale of the calibrated normal weight; ``sigma > 0``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu) or not np.isfinite(self.sigma):
            raise InvalidInputError("weight parameters must be finite")
        if self.sigma <= 0:
            raise DegenerateWeightError(f"weight scale must be positive, got {self.sigma}")


def estimate_weight(distances) -> GaussianWeight:
    """Calibrate the weight from a multiset of pairwise distances.

    ``mu`` is the arithmetic mean and ``sigma`` the population (divide by
    count) standard deviation.  Both are identical whether the multiset holds
    each unordered pair once or each ordered pair twice.
    """
    d = np.asarray(distances, dtype=float).ravel()
    if d.size == 0:
        raise InvalidInputError("cannot calibrate a weight from an empty distance list")
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("distance list contains non-finite values")
    if d.size == 1 or np.ptp(d) == 0.0:
        raise DegenerateWeightError(
            "all pairwise distances are identical; the weight scale is zero"
        )
    with np.errstate(over="ignore"):
        mu = float(d.mean())
        sigma = float(np.sqrt(np.mean((d - mu) ** 2)))
    if not (np.isfinite(mu) and np.isfinite(sigma)):
        raise InvalidInputError("pairwise distance spread overflowed to infinity")
    if sigma == 0.0:
        raise DegenerateWeightError("pairwise distance spread underflowed to zero")
    return GaussianWeight(mu=mu, sigma=sigma)


_erfc = np.frompyfunc(erfc, 1, 1)


def weight_cdf(weight: GaussianWeight, value):
    """Weight distribution function Phi((value - mu) / sigma).

    Accepts scalars or arrays; evaluated as 0.5 * erfc(-x / sqrt(2)) with the
    C library's complementary error function, elementwise, which keeps full
    relative accuracy in the lower tail (absolute error below 3e-16).
    """
    x = (np.asarray(value, dtype=float) - weight.mu) / weight.sigma
    out = 0.5 * np.asarray(_erfc(-x / sqrt(2.0)), dtype=float)
    if np.ndim(value) == 0:
        return float(out)
    return out
