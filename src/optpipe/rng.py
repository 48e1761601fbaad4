"""A plain-Python port of exactly the numpy draws that a run makes.

Placements and background arrivals are drawn as ``numpy.random.default_rng``
draws them, bit for bit, without importing numpy:

* ``SeedSequence`` entropy mixing with pool size 4, for an int of any size
  or a list of ints (numpy's ``bit_generator.pyx``);
* PCG64, the XSL-RR 128/64 generator of O'Neill (2014), with numpy's
  buffered 32-bit half-word: a 32-bit draw takes the low half of a fresh
  64-bit word and keeps the high half for the next 32-bit draw, across
  calls, while 64-bit draws leave the buffer alone;
* ``integers(low, high)`` by numpy's 32-bit Lemire path.  A one-value range
  consumes nothing; a range of 2**32 values or more, which numpy draws
  another way, raises;
* ``exponential(scale)`` by numpy's 256-level ziggurat (Marsaglia and Tsang,
  2000), tail and wedge branches included.  Its tables are
  ``data/ziggurat_exp.json``.

A background arrival (``Generator.arrival``) is these draws and no other
code: two exponentials around three bounded integers, in a fixed order.

``tests/test_rng.py`` holds the port to numpy.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources
from typing import Sequence

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_ZIGGURAT_R = 7.69711747013104972  # start of the tail
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53


@functools.cache
def ziggurat_tables() -> tuple[tuple[float, ...], tuple[int, ...], tuple[float, ...]]:
    """``(we, ke, fe)`` of numpy's exponential ziggurat, read on first use.

    A draw's first word gives a level ``idx`` and an ``ri`` < 2**53; it
    returns ``ri * we[idx]`` at once when ``ri < ke[idx]``, and ``fe[idx]``
    is the density at the level's edge, which the wedge test reads.
    """
    doc = json.loads(
        resources.files("optpipe.data").joinpath("ziggurat_exp.json").read_text("utf-8"))
    return tuple(doc["we"]), tuple(doc["ke"]), tuple(doc["fe"])


def _entropy_words(entropy: int | Sequence) -> list[int]:
    """The 32-bit words of an entropy value: an int least significant word
    first (one zero word for 0), a list its items' words in order."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError(f"seed must be a non-negative integer, got {entropy}")
        words = [entropy & MASK32]
        entropy >>= 32
        while entropy:
            words.append(entropy & MASK32)
            entropy >>= 32
        return words
    return [word for item in entropy for word in _entropy_words(item)]


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & MASK32
    return result ^ (result >> 16)


def seed_sequence_state(entropy: int | Sequence, n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)``."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & MASK32
        value = (value * hash_const) & MASK32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & MASK32
        value = (value * hash_const) & MASK32
        out.append(value ^ (value >> 16))
    return out


def _check_range(values: int) -> None:
    if values > MASK32:
        raise ValueError(f"a range of {values} values takes numpy's 64-bit path, "
                         "which this port does not cover")


class Generator:
    """numpy's ``Generator(PCG64)``, restricted to the draws a run makes.

    ``state`` and ``inc`` are PCG64's 128-bit state and increment;
    ``has_uint32`` and ``uinteger`` are the buffered 32-bit half-word.  All
    four mean what they mean in numpy's ``bit_generator.state``.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, state: int, inc: int, has_uint32: bool = False, uinteger: int = 0):
        self.state = state
        self.inc = inc
        self.has_uint32 = has_uint32
        self.uinteger = uinteger

    def next_uint64(self) -> int:
        s = self.state = (self.state * PCG_MULT + self.inc) & MASK128
        v = (s ^ (s >> 64)) & MASK64
        rot = s >> 122
        return ((v >> rot) | (v << (64 - rot))) & MASK64

    def next_uint32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = False
            return self.uinteger
        word = self.next_uint64()
        self.has_uint32 = True
        self.uinteger = word >> 32
        return word & MASK32

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _TO_UNIT

    def _bounded(self, rng: int) -> int:
        """Uniform on 0..rng by Lemire's rejection, for 0 < rng < 2**32 - 1."""
        excl = rng + 1
        m = self.next_uint32() * excl
        if (m & MASK32) < excl:
            threshold = (1 << 32) % excl
            while (m & MASK32) < threshold:
                m = self.next_uint32() * excl
        return m >> 32

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        """A uniform int in [low, high), or a list of ``size`` of them."""
        rng = high - 1 - low
        if rng < 0:
            raise ValueError(f"low >= high ({low} >= {high})")
        _check_range(rng + 1)
        if size is None:
            return low + self._bounded(rng) if rng else low
        return [low + self._bounded(rng) if rng else low for _ in range(size)]

    def standard_exponential(self) -> float:
        we, ke, fe = ziggurat_tables()
        ri = self.next_uint64() >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * we[idx]
        if ri < ke[idx]:
            return x
        if idx == 0:
            return _ZIGGURAT_R - math.log1p(-self.next_double())
        if (fe[idx - 1] - fe[idx]) * self.next_double() + fe[idx] < math.exp(-x):
            return x
        return self.standard_exponential()

    def exponential(self, scale: float = 1.0) -> float:
        return scale * self.standard_exponential()

    def arrival(self, gap_scale: float, n: int, lo: int, hi: int,
                hold_scale: float) -> tuple[float, int, int, int, float]:
        """One background arrival, five draws in this order:
        ``exponential(gap_scale)``, ``integers(0, n)``, ``integers(0, n - 1)``,
        ``integers(lo, hi + 1)``, ``exponential(hold_scale)``.  Needs n >= 2.
        """
        return (self.exponential(gap_scale), self.integers(0, n), self.integers(0, n - 1),
                self.integers(lo, hi + 1), self.exponential(hold_scale))


def default_rng(seed: int | Sequence[int]) -> Generator:
    """``numpy.random.default_rng(seed)``: PCG64 seeded through ``SeedSequence``."""
    w = seed_sequence_state(seed, 8)
    initstate = (w[0] | w[1] << 32) << 64 | (w[2] | w[3] << 32)
    initseq = (w[4] | w[5] << 32) << 64 | (w[6] | w[7] << 32)
    inc = ((initseq << 1) | 1) & MASK128
    # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
    return Generator(((inc + initstate) * PCG_MULT + inc) & MASK128, inc)
