"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a generator produced by
``substream(seed, *path)``.  The stream depends only on the seed and the
integer path, never on call order or thread scheduling, so results are
reproducible under any degree of parallelism.  A seed must be an integer,
of any integral type but ``bool``: a float or a string would otherwise be
truncated or parsed onto some other seed's streams.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import InvalidInputError

# Domain tags keep unrelated consumers of the same user seed on disjoint
# streams.
PERMUTATION = 1
SCENARIO = 2
GROUP_PAIR = 3
POWER_REP = 4


def check_seed(seed) -> int:
    """``seed`` as an ``int`` if it is an integer (of any integral type but
    ``bool``); otherwise raises ``InvalidInputError``."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def _sequence(seed: int, path) -> np.random.SeedSequence:
    """The seed sequence of the stream ``(seed, *path)``."""
    key = tuple(int(p) % (1 << 32) for p in path)
    return np.random.SeedSequence(check_seed(seed) % (1 << 64), spawn_key=key)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *path)``."""
    return np.random.default_rng(_sequence(seed, path))


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, *path)`` into a fresh 64-bit seed."""
    return int(_sequence(seed, path).generate_state(1, np.uint64)[0])
