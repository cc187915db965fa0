"""The named options of a statistic: the distance on each side and the
functional.  This module loads no kernels, so the command line can list the
options without importing them; ``metrics`` and ``stats_core`` re-export
``Metric`` and ``Functional``."""

from enum import Enum

from .exceptions import InvalidInputError


class Choice(Enum):
    """A named option; subclasses list the members."""

    @classmethod
    def parse(cls, text: str):
        """The member named ``text``, ignoring case and surrounding blanks."""
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            choices = ", ".join(c.value for c in cls)
            raise InvalidInputError(
                f"unknown {cls.__name__.lower()} {text!r} (choose from {choices})"
            ) from None


class Metric(Choice):
    """Coordinate-wise distance: sum, root of sum of squares, or maximum of
    absolute differences."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


class Functional(Choice):
    """Aggregation of the discrepancy: absolute integral, squared integral,
    or supremum."""

    L1 = "l1"
    L2 = "l2"
    SUP = "sup"
