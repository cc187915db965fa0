"""The streams module derives numpy's SeedSequence states bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recurtest as rt
from recurtest import streams

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -5, 3 * 2**70 + 7]
EDGE_KS = [0, 1, 2**32 - 1, 2**32, 2**33 + 5]


def sequence(seed, *path):
    """numpy's seed sequence of the stream ``(seed, *path)``."""
    return np.random.SeedSequence(seed % 2**64, spawn_key=[p % 2**32 for p in path])


def words_of(seed, *path):
    return sequence(seed, *path).generate_state(4, np.uint64)


def numpy_generator(seed, *path):
    return np.random.Generator(np.random.PCG64(sequence(seed, *path)))


def assert_same_draws(rng, seed, *path):
    want = numpy_generator(seed, *path)
    assert np.array_equal(rng.permutation(50), want.permutation(50))
    assert np.array_equal(rng.standard_normal(7), want.standard_normal(7))


@pytest.mark.parametrize("seed", EDGE_SEEDS + list(np.random.default_rng(3).integers(0, 2**63, 20)))
def test_edge_seeds_and_rows_match_seed_sequence(seed):
    seed = int(seed)
    for k in EDGE_KS:
        draws = streams.Substreams(seed, streams.PERMUTATION, ks=range(k, k + 2))
        for j in (k, k + 1):
            want = words_of(seed, streams.PERMUTATION, j)
            assert draws.words.dtype == np.uint64
            assert np.array_equal(draws.words[j - k], want)
            assert_same_draws(draws.generator(j), seed, streams.PERMUTATION, j)
            assert_same_draws(streams.substream(seed, streams.PERMUTATION, j), seed, streams.PERMUTATION, j)
            assert streams.derive_seed(seed, streams.PERMUTATION, j) == int(want[0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(-(2**80), 2**80),
    path=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=3),
)
def test_streams_match_seed_sequence(seed, path):
    assert_same_draws(streams.substream(seed, *path), seed, *path)
    assert streams.derive_seed(seed, *path) == int(words_of(seed, *path)[0])
    *prefix, first = path
    draws = streams.Substreams(seed, *prefix, ks=range(first, first + 3))
    for i, k in enumerate(range(first, first + 3)):
        assert np.array_equal(draws.words[i], words_of(seed, *prefix, k))
        assert_same_draws(draws.generator(k), seed, *prefix, k)


def test_longest_path_matches_seed_sequence():
    path = list(range(7, 7 + streams.MAX_PATH))
    assert_same_draws(streams.substream(9, *path), 9, *path)
    draws = streams.Substreams(9, *path[:-1], ks=range(path[-1], path[-1] + 1))
    assert np.array_equal(draws.words[0], words_of(9, *path))
    with pytest.raises(rt.InvalidInputError, match="at most 16 words"):
        streams.derive_seed(9, *path, 1)
    with pytest.raises(rt.InvalidInputError, match="at most 16 words"):
        streams.Substreams(9, *path, ks=range(3))


@pytest.mark.parametrize("width", [1, 3, 13])
def test_rows_derived_in_blocks_equal_rows_derived_at_once(width):
    whole = streams.Substreams(2**40 + 3, streams.SCENARIO, ks=range(101)).words
    blocks = [
        streams.Substreams(2**40 + 3, streams.SCENARIO, ks=range(first, min(first + width, 101))).words
        for first in range(0, 101, width)
    ]
    assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize("chunk", [1, 7, 100, 101])
def test_chunks_do_not_change_the_words(monkeypatch, chunk):
    ks = range(5, 106)
    want = np.array([words_of(2**40 + 3, streams.SCENARIO, k) for k in ks])
    monkeypatch.setattr(streams, "_CHUNK_STREAMS", chunk)
    assert np.array_equal(streams.Substreams(2**40 + 3, streams.SCENARIO, ks=ks).words, want)


def test_no_rows():
    assert streams.Substreams(4, streams.PERMUTATION, ks=range(5, 5)).words.shape == (0, 4)


@pytest.mark.parametrize("seed", [True, 1.0, "1", None])
def test_seed_must_be_an_integer(seed):
    for ks in (range(3), range(0)):
        with pytest.raises(rt.InvalidInputError, match="seed must be an integer"):
            streams.Substreams(seed, streams.PERMUTATION, ks=ks)
    with pytest.raises(rt.InvalidInputError, match="seed must be an integer"):
        streams.derive_seed(seed, 1)
    assert streams.check_seed(np.int64(-3)) == -3
