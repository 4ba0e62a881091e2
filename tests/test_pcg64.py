"""The pure-Python generator against the numpy stream it copies."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evshare._pcg64 import Generator, _ziggurat

# Seeds of one to six 32-bit words: a seed of five or more also runs the
# SeedSequence step that mixes in the words beyond the pool's four.
seeds = st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6).map(
    lambda words: sum(word << 32 * n for n, word in enumerate(words)))
# Ranges of one value (no draw), small ranges, and ranges that make the
# Lemire rejection step likely.
integer_sizes = st.one_of(st.just(1), st.integers(min_value=1, max_value=10),
                          st.integers(min_value=2**31, max_value=2**32 - 1))
finite = st.floats(min_value=-1e3, max_value=1e3)
draws = st.lists(st.one_of(
    st.tuples(st.just("uniform"), finite, st.floats(min_value=0, max_value=1e3)),
    st.tuples(st.just("integers"), st.integers(min_value=-2**40, max_value=2**40), integer_sizes),
    st.tuples(st.just("normal"), finite, st.floats(min_value=0, max_value=1e3)),
    st.tuples(st.just("raw"), st.just(0), st.just(0)),
), max_size=60)


def draw(rng, kind, a, b):
    if kind == "uniform":
        return rng.uniform(a, a + b)
    if kind == "integers":
        return int(rng.integers(a, a + b))
    if kind == "normal":
        return float(rng.normal(a, b))
    # a bare 64-bit word, which leaves the 32-bit half-word buffer alone
    return rng._next64() if isinstance(rng, Generator) else int(rng.bit_generator.random_raw())


@given(seeds, draws)
def test_interleaved_draws_match_numpy(seed, sequence):
    mine, theirs = Generator(seed), np.random.default_rng(seed)
    for kind, a, b in sequence:
        assert draw(mine, kind, a, b) == draw(theirs, kind, a, b), (kind, a, b)
    # the streams are still in step after the sequence
    assert mine.integers(0, 2**31) == theirs.integers(0, 2**31)
    assert mine.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)


def test_standard_normals_match_numpy_through_every_ziggurat_branch():
    count = 300_000
    mine = Generator(20261022)
    words = []
    next64 = mine._next64

    def recorded():
        word = next64()
        words.append(word)
        return word

    mine._next64 = recorded
    starts, values = [], []
    for _ in range(count):
        starts.append(len(words))
        values.append(mine.normal(0.0, 1.0))
    assert values == np.random.default_rng(20261022).standard_normal(count).tolist()
    # A draw leaves the fast path when its first word's magnitude reaches
    # ki of its layer: layer 0 goes to the tail, any other to a wedge.
    ki = _ziggurat()[0]
    tail = wedge = 0
    for start in starts:
        layer = words[start] & 0xFF
        if (words[start] >> 9) & 0x000FFFFFFFFFFFFF >= ki[layer]:
            tail += layer == 0
            wedge += layer != 0
    assert tail > 0 and wedge > 0


def test_draws_outside_the_copy_raise():
    rng = Generator(0)
    with pytest.raises(NotImplementedError):
        rng.integers(0, 2**32)
    with pytest.raises(ValueError):
        rng.integers(5, 5)
    with pytest.raises(ValueError):
        Generator(-1)
