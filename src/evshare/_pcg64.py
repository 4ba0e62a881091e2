"""A pure-Python copy of the stream ``numpy.random.default_rng(seed)`` draws.

It reproduces numpy 2.4.6 bit for bit, for the draws scenario generation
makes and no others: ``SeedSequence`` seeding of the PCG64 bit generator
(XSL-RR output, O'Neill 2014), ``uniform``, ``integers`` on a range below
2**32 (the buffered 32-bit Lemire path) and ``normal`` (numpy's 256-layer
ziggurat, after Marsaglia and Tsang 2000).  Every other draw raises.  The
ziggurat tables in ``data/ziggurat.json`` were read from numpy's compiled
generator, because the textbook formula does not reproduce their last bits.
Both the algorithms and the tables are numpy's, used under its BSD license
(see the README's third-party notice).
"""

import functools
import json
import math
import os

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_NOR_R = 3.6541528853610087963519472518        # where the ziggurat's tail starts
_NOR_INV_R = 0.27366123732975827203338247596


def _seed_words(seed):
    """``SeedSequence(seed).generate_state(4, numpy.uint64)``, pool size 4."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


@functools.cache
def _ziggurat():
    path = os.path.join(os.path.dirname(__file__), "data", "ziggurat.json")
    with open(path) as handle:
        tables = json.load(handle)
    return tables["ki"], tables["wi"], tables["fi"]


class Generator:
    """The draws of ``numpy.random.default_rng(seed)``, one scalar at a time."""

    def __init__(self, seed):
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._next64()
        self._half = None   # the unused upper half of a word split by _next32

    def _next64(self):
        self._state = state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        word = (state >> 64) ^ (state & _MASK64)
        rotation = state >> 122
        return (word >> rotation | word << (64 - rotation)) & _MASK64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _next_double(self):
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low, high):
        low = float(low)
        return low + (float(high) - low) * self._next_double()

    def integers(self, low, high):
        """An integer from [low, high); a range of one value draws nothing."""
        low, high = int(low), int(high) - 1
        span = high - low
        if span < 0 or low < -2**63 or high >= 2**63:
            raise ValueError(f"integers({low}, {high + 1}) has no int64 value to draw")
        if span >= _MASK32:
            raise NotImplementedError("integer ranges of 2**32 or more are not copied")
        if span == 0:
            return low
        size = span + 1
        product = self._next32() * size
        if product & _MASK32 < size:
            threshold = (_MASK32 - span) % size
            while product & _MASK32 < threshold:
                product = self._next32() * size
        return low + (product >> 32)

    def normal(self, loc, scale):
        return loc + scale * self._standard_normal()

    def _standard_normal(self):
        ki, wi, fi = _ziggurat()
        while True:
            word = self._next64()
            layer = word & 0xFF
            word >>= 8
            magnitude = (word >> 1) & 0x000FFFFFFFFFFFFF
            x = magnitude * wi[layer]
            if word & 1:
                x = -x
            if magnitude < ki[layer]:
                return x
            if layer == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if (magnitude >> 8) & 1 else _NOR_R + xx
            wedge = (fi[layer - 1] - fi[layer]) * self._next_double() + fi[layer]
            if wedge < math.exp(-0.5 * x * x):
                return x
