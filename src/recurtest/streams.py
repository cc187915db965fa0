"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from the generator of a
stream ``(seed, *path)``: a PCG64 seeded as numpy seeds it from
``SeedSequence(seed mod 2**64, spawn_key=[p mod 2**32 for p in path])``.
The stream depends only on the seed and the integer path, never on call
order or thread scheduling, so results are reproducible under any degree of
parallelism.  A seed must be an integer, of any integral type but ``bool``:
a float or a string would otherwise be truncated or parsed onto some other
seed's streams, and a path holds at most ``MAX_PATH`` words.

The module derives a stream's four PCG64 state words itself, bit for bit as
numpy's ``SeedSequence`` (O'Neill's ``seed_seq_fe`` hash) derives them, in
one hash that takes Python ints and ``uint64`` arrays alike.  ``substream``
and ``derive_seed`` hash one stream in Python ints.  ``Substreams`` derives
the streams ``(seed, *path, k)`` of a range of k at once: the seed and the
path, which do not depend on k, are hashed once in Python ints, and only k
and the output over an array of every k.  A stream's words take 32 bytes.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .exceptions import InvalidInputError

# Domain tags keep unrelated consumers of the same user seed on disjoint
# streams.
PERMUTATION = 1
SCENARIO = 2
GROUP_PAIR = 3
POWER_REP = 4

MAX_PATH = 16
# Most streams whose words ``Substreams`` derives at once.
_CHUNK_STREAMS = 1 << 16

_MASK = 0xFFFFFFFF
# SeedSequence's mix of two pool words.
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The (xor, multiplier) pairs of ``count`` successive calls of a
    SeedSequence hash whose constant starts at ``init`` and is multiplied
    by ``mult`` at each call."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK)
    return list(zip(consts, consts[1:]))


# The entropy hash runs once per pool word, once per ordered pair of pool
# words and once per pool word for each path word, in that order; the
# output hash once per 32-bit output word.  The schedules below hold each
# call's operands: the pool word hashed (src) or mixed into (dst), and
# the call's (xor, mult).
_ENTROPY_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * MAX_PATH)
_POOL_HASH = _ENTROPY_HASH[:4]
# The last two pool words hash the zero padding, whatever the seed.
_PADDING = [value ^ value >> 16 for value in (xor * mult & _MASK for xor, mult in _POOL_HASH[2:])]
_POOL_PAIRS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
_POOL_MIX = tuple((*pair, *hash_) for pair, hash_ in zip(_POOL_PAIRS, _ENTROPY_HASH[4:16]))
_PATH_MIX = tuple(tuple((dst, *_ENTROPY_HASH[16 + 4 * i + dst]) for dst in range(4)) for i in range(MAX_PATH))
_OUTPUT_HASH = tuple((i % 4, *hash_) for i, hash_ in enumerate(_hash_constants(0x8B51F9DD, 0x58F38DED, 8)))


def check_seed(seed) -> int:
    """``seed`` as an ``int`` if it is an integer (of any integral type but
    ``bool``); otherwise raises ``InvalidInputError``."""
    if type(seed) is int:
        return seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def _state(seed: int, path, words: int = 4) -> list:
    """The first ``words`` 64-bit state words of the stream ``(seed, *path)``,
    as ``SeedSequence(seed % 2**64, spawn_key=path).generate_state(words,
    np.uint64)`` gives them, for a path of 32-bit words.  Each path word is
    a Python int, or a ``uint64`` array of words for as many streams; each
    state word is then an array with one word per stream."""
    if len(path) > MAX_PATH:
        raise InvalidInputError(f"a stream path holds at most {MAX_PATH} words, got {len(path)}")
    seed = check_seed(seed) % (1 << 64)
    # The seed's two words and zero padding fill the pool; every pool word
    # is then mixed into every other, and each path word into every pool
    # word.
    pool = []
    for value, (xor, mult) in zip((seed & _MASK, seed >> 32), _POOL_HASH):
        value = (value ^ xor) * mult & _MASK
        pool.append(value ^ value >> 16)
    pool += _PADDING
    for src, dst, xor, mult in _POOL_MIX:
        value = (pool[src] ^ xor) * mult & _MASK
        value = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _MASK
        pool[dst] = value ^ value >> 16
    for word, mixes in zip(path, _PATH_MIX):
        for dst, xor, mult in mixes:
            value = (word ^ xor) * mult & _MASK
            value = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _MASK
            pool[dst] = value ^ value >> 16
    # A state word is a little-endian pair of 32-bit output words.
    state = []
    for i, (src, xor, mult) in enumerate(_OUTPUT_HASH[: 2 * words]):
        value = (pool[src] ^ xor) * mult & _MASK
        value ^= value >> 16
        if i % 2 == 0:
            low = value
        else:
            state.append(low | value << 32)
    return state


class _StateWords(ISeedSequence):
    """The seed sequence that hands ``PCG64`` its four state words, derived
    beforehand: a C-contiguous ``uint64`` array of four."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator of the stream whose state words are ``words``."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *path)``."""
    return _generator(np.array(_state(seed, [int(p) & _MASK for p in path]), dtype=np.uint64))


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, *path)`` into a fresh 64-bit seed: the first state word
    of its stream."""
    (word,) = _state(seed, [int(p) & _MASK for p in path], 1)
    return word


class Substreams:
    """The streams ``(seed, *path, k)`` of every k in the range ``ks``, their
    state words derived at once, 32 bytes a stream.  ``generator(k)`` is the
    generator ``substream(seed, *path, k)`` returns."""

    def __init__(self, seed: int, *path: int, ks: range):
        self.ks = ks
        prefix = [int(p) & _MASK for p in path]
        self.words = np.empty((len(ks), 4), dtype=np.uint64)
        # The hash's temporaries take about 100 bytes a stream, so a long
        # range is hashed in chunks (and an empty one once, to check the
        # seed and the path).
        for first in range(0, len(ks) or 1, _CHUNK_STREAMS):
            chunk = ks[first : first + _CHUNK_STREAMS]
            last = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.int64) & _MASK
            state = _state(seed, prefix + [last.astype(np.uint64)])
            self.words[first : first + len(chunk)] = np.stack(state, axis=1)

    def generator(self, k: int) -> np.random.Generator:
        """The generator of the stream ``(seed, *path, k)``, for k in ``ks``."""
        return _generator(self.words[self.ks.index(k)])
