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
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

_WORD_MASK = 0xFFFFFFFF


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

    def __repr__(self):
        return f"Key(words={self.words})"

    def seed_sequence(self) -> np.random.SeedSequence:
        """A fresh, unspawned SeedSequence for this stream."""
        return np.random.SeedSequence(np.array(self.words, dtype=np.uint32))


def generator(master_seed: int, *key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(Key(master_seed, *key).seed_sequence()))
