"""Seeded random draws, bit for bit those of ``numpy.random.default_rng(seed)``.

Only the draws that pswm makes are reproduced, in plain Python integers:

  - seeding: numpy's SeedSequence hashes a non-negative int seed (its
    32-bit words, least significant first) into a pool of four words, and
    the pool into eight output words: the PCG64 state and increment;
  - stepping: PCG64, a 128-bit linear congruential generator whose 64-bit
    output is the XSL-RR permutation of the new state: its two halves
    XORed, rotated right by its top six bits;
  - 32-bit draws take the low half of a 64-bit output and keep the high
    half for the next 32-bit draw; 64-bit draws leave that half waiting;
  - `uniform`: ``low + (high - low) * u`` with ``u = (next64 >> 11) * 2**-53``;
  - `permutation`: Fisher-Yates from the top, each index drawn by masked
    rejection on 32-bit draws;
  - `integers`: Lemire's multiply-and-reject on 32-bit draws. numpy takes
    the full 32-bit span as one 32-bit draw; in unbounded integers Lemire's
    method gives just that, where C's 32-bit bound would wrap to 0.

The draws fix the bits of initial weights, the training shuffle and the
gradient-check suite, so any change here changes every trained model.
"""

from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWICE = (1 << 64) | 1  # x * _TWICE holds x in both 64-bit halves, so one shift rotates x

# SeedSequence's hashing constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(8): eight 32-bit words."""
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return words


class Generator:
    """The draws of ``numpy.random.default_rng(seed)`` that pswm uses (see module doc)."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        w = _seed_words(seed)
        # generate_state(4, uint64) pairs the words little-endian; state is (s0, s1), the stream (s2, s3).
        initstate = (w[0] | w[1] << 32) << 64 | (w[2] | w[3] << 32)
        initseq = (w[4] | w[5] << 32) << 64 | (w[6] | w[7] << 32)
        self._inc = (initseq << 1 | 1) & _MASK128
        # PCG's seeding: one step from state 0 (which gives the increment), add initstate, one more step.
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._half = -1  # the waiting high half of the last 64-bit output, -1 when none waits

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return ((((state >> 64) ^ (state & _MASK64)) * _TWICE) >> (state >> 122)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def uniform(self, low: float, high: float, n: int) -> list[float]:
        """`n` floats drawn uniformly from [low, high), in numpy's row-major fill order."""
        out = [0.0] * n  # allocated before any draw, so a size too large to hold fails at once
        span = high - low
        for i in range(n):
            out[i] = low + span * ((self._next64() >> 11) * 2.0**-53)
        return out

    def permutation(self, n: int) -> list[int]:
        """A random ordering of range(n)."""
        if n - 1 > _MASK32:
            raise ValueError(f"permutation size {n} needs 64-bit draws, which are not reproduced")
        out = list(range(n))
        # Fisher-Yates with the step and the buffered halves inlined, on locals: this loop is
        # the whole cost of a training epoch's shuffle.
        state, inc, half = self._state, self._inc, self._half
        mult, mask128, mask64, twice = _PCG_MULT, _MASK128, _MASK64, _TWICE
        mask = (1 << (n - 1).bit_length()) - 1  # the smallest all-ones mask >= i, narrowed as i falls
        lower = mask >> 1
        for i in range(n - 1, 0, -1):
            if i == lower:
                mask = lower
                lower >>= 1
            while True:
                if half >= 0:
                    j = half & mask
                    half = -1
                else:
                    state = (state * mult + inc) & mask128
                    x = ((((state >> 64) ^ (state & mask64)) * twice) >> (state >> 122)) & mask64
                    half = x >> 32
                    j = x & mask
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self._state, self._half = state, half
        return out

    def integers(self, low: int, high: int) -> int:
        """One int drawn uniformly from [low, high); high - low must be in 1..2**32."""
        span = high - low - 1  # offsets are drawn from the closed range [0, span]
        if span < 0:
            raise ValueError(f"low >= high: {low}, {high}")
        if span > _MASK32:
            raise ValueError(f"span {span + 1} needs 64-bit draws, which are not reproduced")
        if span == 0:
            return low
        bound = span + 1
        m = self._next32() * bound
        if (m & _MASK32) < bound:
            threshold = (_MASK32 - span) % bound
            while (m & _MASK32) < threshold:
                m = self._next32() * bound
        return low + (m >> 32)
