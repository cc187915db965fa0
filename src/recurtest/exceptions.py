"""Exception types shared across the package, and the check of the counts
that callers pass."""

import numbers


class InvalidInputError(ValueError):
    """Raised when user-supplied data or parameters violate a precondition."""


class DegenerateWeightError(InvalidInputError):
    """Raised when all pairwise distances are identical, so the Gaussian
    weight cannot be calibrated (zero spread)."""


class InternalConsistencyError(RuntimeError):
    """Raised when an internal numerical invariant is violated beyond
    round-off tolerance."""


def positive_count(value, name: str) -> int:
    """``value`` as an ``int`` if it is an integer (of any integral type but
    ``bool``) >= 1.  Otherwise raises ``InvalidInputError``: "``name`` must be
    a positive integer", or for an integer below 1, "``name`` must be >= 1"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {value}")
    return int(value)
