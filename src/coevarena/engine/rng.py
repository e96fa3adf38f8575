"""Keyed random streams.

Every random decision in a run draws from a stream derived from the master
seed plus a structural key (purpose, generation, role, index...). Streams are
therefore independent of evaluation order, which is what makes parallel and
sequential execution agree and whole runs reproducible bit for bit.

A ``Key`` names a stream without building it. The engine hands each
engagement a key, and an environment that draws random numbers builds the
stream with ``key.seed_sequence()``; a deterministic one never pays for it.
A key's words are the 32-bit words numpy would make of the list
``[master_seed, *parts]``, so its stream is the one that list seeds.

The engine draws from a ``Stream``: numpy's ``Generator`` algorithms for
``random``, ``integers`` and ``permutation``, re-done in plain Python over the
raw 64-bit words of ``PCG64``, which skips numpy's per-call overhead on scalar
draws. numpy's stream-compatibility policy (NEP 19) promises the bit
generators' raw streams, not ``Generator``'s distribution algorithms, so
``tests/test_rng.py::TestStreamMatchesGenerator`` checks every draw against
the installed numpy's ``Generator``; it fails if a numpy release changes them.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

_WORD_MASK = 0xFFFFFFFF
_RAW_MASK = 2**64 - 1
# Raw words taken from the bit generator at a time; most streams are short.
_BLOCK = 32


@functools.lru_cache(maxsize=256)
def _crc32(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def _int_words(part: int) -> list[int]:
    if part < 0:
        raise ValueError(f"key part {part} is negative")
    words = [part & _WORD_MASK]
    part >>= 32
    while part:
        words.append(part & _WORD_MASK)
        part >>= 32
    return words


class Key:
    """The seed material of one random stream: master seed plus key parts.

    An int part becomes its little-endian 32-bit words (0 becomes one zero
    word) and a str part its crc32. Any other part, a bool included, raises
    TypeError and a negative int ValueError, at construction.
    """

    __slots__ = ("words",)

    words: tuple[int, ...]

    def __init__(self, master_seed: int, *parts):
        words = []
        for part in (master_seed, *parts):
            if type(part) is int and 0 <= part <= _WORD_MASK:
                words.append(part)
            elif isinstance(part, str):
                words.append(_crc32(part))
            elif isinstance(part, bool):
                raise TypeError("bool key parts are ambiguous")
            elif isinstance(part, int):
                words.extend(_int_words(part))
            else:
                raise TypeError(f"cannot key a random stream on {type(part).__name__}")
        object.__setattr__(self, "words", tuple(words))

    def __setattr__(self, name, value):
        raise AttributeError("Key is immutable")

    def __reduce__(self):
        # Each word, as an int part, encodes as itself; __setattr__ blocks slot restore.
        return Key, self.words

    def __repr__(self):
        return f"Key(words={self.words})"

    def seed_sequence(self) -> np.random.SeedSequence:
        """A fresh, unspawned SeedSequence for this stream."""
        return np.random.SeedSequence(np.array(self.words, dtype=np.uint32))


class Stream:
    """The draws of ``np.random.Generator(np.random.PCG64(key.seed_sequence()))``.

    Each method returns what the same call on that Generator returns, call
    for call. A 32-bit draw takes the low half of a raw word and keeps the
    high half for the next one, as PCG64's ``next_uint32`` does; 64-bit
    draws leave a kept half in place.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, key: Key):
        self._bits = np.random.PCG64(key.seed_sequence())
        self._words: list[int] = []
        self._half: int | None = None

    def _word(self) -> int:
        if not self._words:
            self._words = self._bits.random_raw(_BLOCK).tolist()[::-1]
        return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _WORD_MASK
        self._half = None
        return half

    def random(self) -> float:
        return (self._word() >> 11) * 2**-53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), for high - low <= 2**64, by Lemire's method.

        high - low == 2**32 (2**64) gives the raw half (word) unchanged, as
        numpy's special case for it does; high - low == 1 draws nothing.
        """
        span = high - low - 1
        if span <= 0:
            if span < 0:
                raise ValueError("low >= high")
            return low
        if span <= _WORD_MASK:
            draw, bits, mask = self._uint32, 32, _WORD_MASK
        else:
            draw, bits, mask = self._word, 64, _RAW_MASK
        bound = span + 1
        product = draw() * bound
        if (product & mask) < bound:
            threshold = (mask - span) % bound
            while (product & mask) < threshold:
                product = draw() * bound
        return low + (product >> bits)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates with numpy's random_interval: mask a 32-bit half to
        i's bit length and reject values above i. Holds for n <= 2**32."""
        values = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            values[i], values[j] = values[j], values[i]
        return values


def generator(master_seed: int, *key) -> Stream:
    return Stream(Key(master_seed, *key))
