"""Exception types shared across the package, and the checks of the counts
and typed values that callers pass."""

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


def typed(value, kind: type, message: str):
    """``value`` if it is a ``kind``, or an integer as a ``float`` when ``kind``
    is ``float``; otherwise raises ``InvalidInputError(message)``.  A bool is
    never a number, and an integer beyond the float range is not a float."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    elif not isinstance(value, bool) and isinstance(value, kind):
        return value
    raise InvalidInputError(message)
