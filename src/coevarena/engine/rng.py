"""Keyed random streams.

Every random decision in a run draws from a stream derived from the master
seed plus a structural key (purpose, generation, role, index...). Streams are
therefore independent of evaluation order, which is what makes parallel and
sequential execution agree and whole runs reproducible bit for bit.

A ``Key`` names a stream without building it. The engine hands each
engagement a key, and an environment that draws random numbers builds the
stream with ``key.seed_sequence()``; a deterministic one never pays for it.
A key is a tuple of 32-bit words, the ones numpy would make of the list
``[master_seed, *parts]``, so its stream is the one that list seeds.

An environment that wants n sub-streams, the children of
``key.seed_sequence().spawn(n)``, can take their PCG64 states at once from
``key.sibling_states(range(n))``: the children share every entropy word but
the last, so numpy's SeedSequence hashes the shared words once and the rest
runs as numpy arrays across all n; the part of that which depends only on
the key's word count and the range of children is built once and kept. The
contagion simulator seeds its trials this way. A single stream, ``generator``,
runs the same output stage on its key's pool, in place of numpy's
``generate_state``.

The prefix-child rule: when a key has at least four words, SeedSequence's
pool size, child i of its SeedSequence is exactly the stream of
``Key(*parts, i)``, for ``0 <= i < 2**32``: both hash the key's words and
then i. A child of a shorter key pads the words with zeros up to four before
i, where ``Key(*parts, i)`` puts i right after them, so there the two
differ. ``siblings`` builds the streams of ``Key(seed, *prefix, i)`` for i
in a range from one ``sibling_states`` call and refuses a prefix of fewer
than four words; ``Key.child(i)`` names such a stream by appending one word.

The engine draws from a ``Stream``: numpy's ``Generator`` algorithms for
``random``, ``integers`` and ``permutation``, re-done in plain Python over the
raw 64-bit words of ``PCG64``, which skips numpy's per-call overhead on scalar
draws. ``hits(n, p)`` is the one method numpy's ``Generator`` lacks: the
indices i < n whose ``random() < p`` draw hits, each tested as one integer
comparison of the raw word; ``tests/oracles.py::OracleGenerator`` defines it
on a Generator as that loop of ``random`` calls. A stream is only its PCG64
``(state, inc)``: it takes its words a block of 64 at a time from one shared
``PCG64``, set to the stream's state, and then moves its own state past the
block by a precomputed LCG jump. Setting that state is the module's one
write to a bit generator, and ``fill_random`` uses it too; it rewrites one
module-level state dict rather than building one per block. numpy's
stream-compatibility policy (NEP 19) promises the bit generators' raw
streams, not ``Generator``'s distribution algorithms, so
``tests/test_rng.py::TestStreamMatchesGenerator`` checks every draw against
the installed numpy's ``Generator``; it fails if a numpy release changes them.
The shared bit generator makes streams unsafe to draw from in two threads at
once; separate processes are fine.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections.abc import Iterator

import numpy as np

_WORD_MASK = 0xFFFFFFFF
_RAW_MASK = 2**64 - 1
_MASK_128 = 2**128 - 1
# Raw words taken from the bit generator at a time: enough for most streams,
# a child's variation among them, in one seating.
_BLOCK = 64

# The constants of numpy's SeedSequence hashing (its pool holds four 32-bit
# words) and PCG64's 128-bit multiplier; see Key.sibling_states.
_POOL_SIZE = 4
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_OUTPUT_ROWS = np.array([k % _POOL_SIZE for k in range(2 * _POOL_SIZE)])
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# _BLOCK PCG64 steps as one: state -> state * _JUMP_MULT + inc * _JUMP_INC
_JUMP_MULT = pow(_PCG64_MULT, _BLOCK, 2**128)
_JUMP_INC = sum(pow(_PCG64_MULT, j, 2**128) for j in range(_BLOCK)) & _MASK_128

# The one bit generator every Stream and fill_random draws from; _seat sets its state.
_BITS = np.random.PCG64(0)
_RANDOM = np.random.Generator(_BITS).random


# The one state dict _seat rewrites: the PCG64 setter only reads it, so no seat needs its own.
_SEATED = {"state": 0, "inc": 0}
_SEATING = {"bit_generator": "PCG64", "state": _SEATED, "has_uint32": 0, "uinteger": 0}


def _seat(state: int, inc: int) -> None:
    _SEATED["state"] = state
    _SEATED["inc"] = inc
    _BITS.state = _SEATING


def _pcg64_seeded(initstate: int, initseq: int) -> tuple[int, int]:
    """PCG64's seeding: inc = 2 * initseq + 1, then two LCG steps from state 0
    with initstate added after the first."""
    inc = initseq << 1 & _MASK_128 | 1
    return (inc + initstate) * _PCG64_MULT + inc & _MASK_128, inc


def _int_words(part: int) -> list[int]:
    if part < 0:
        raise ValueError(f"key part {part} is negative")
    words = [part & _WORD_MASK]
    part >>= 32
    while part:
        words.append(part & _WORD_MASK)
        part >>= 32
    return words


def _constants(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, ..., start*mult**count (mod 2**32) as a uint32 array."""
    values = [start]
    for _ in range(count):
        values.append(values[-1] * mult & _WORD_MASK)
    return np.array(values, dtype=np.uint32)


_OUTPUT_CONSTS = _constants(_HASH_INIT_B, _HASH_MULT_B, len(_OUTPUT_ROWS))
_OUTPUT_XOR, _OUTPUT_MULT = _OUTPUT_CONSTS[:-1], _OUTPUT_CONSTS[1:]


def _pool_states(pools: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` seeded from each row of a (..., 4) uint32 array
    of SeedSequence pools: ``generate_state(4, np.uint64)``'s eight words,
    cycling through the pool, joined little-endian as numpy joins them."""
    out = (pools.take(_OUTPUT_ROWS, axis=-1) ^ _OUTPUT_XOR) * _OUTPUT_MULT
    out ^= out >> 16
    words = out.astype("<u4", copy=False).view("<u8").reshape(-1, 4).tolist()
    return [_pcg64_seeded(w0 << 64 | w1, w2 << 64 | w3) for w0, w1, w2, w3 in words]


@functools.lru_cache(maxsize=64)
def _spawn_term(rounds: int, children: range) -> np.ndarray:
    """The child-index half of the spawn mix, ``_MIX_MULT_R`` times each index
    hashed from the constant ``rounds`` hashmix calls leave, as a read-only
    (child, pool word) uint32 array. Keys of one word count share rounds."""
    const = _HASH_INIT_A * pow(_HASH_MULT_A, rounds, 2**32) & _WORD_MASK
    consts = _constants(const, _HASH_MULT_A, _POOL_SIZE)
    indices = np.arange(children.start, children.stop, children.step, dtype=np.uint32)[:, None]
    value = (indices ^ consts[:-1]) * consts[1:]
    value ^= value >> 16
    term = value * _MIX_MULT_R
    term.flags.writeable = False
    return term


class Key(tuple):
    """The seed material of one random stream: the tuple of 32-bit words of
    its master seed and key parts.

    An int part becomes its little-endian 32-bit words (0 becomes one zero
    word) and a str part its crc32. Any other part, a bool included, raises
    TypeError and a negative int ValueError, at construction. Keys of the
    same words are equal and hash alike.
    """

    __slots__ = ()

    def __new__(cls, master_seed: int, *parts):
        words = []
        for part in (master_seed, *parts):
            if type(part) is int and 0 <= part <= _WORD_MASK:
                words.append(part)
            elif isinstance(part, str):
                words.append(zlib.crc32(part.encode("utf-8")))
            elif isinstance(part, bool):
                raise TypeError("bool key parts are ambiguous")
            elif isinstance(part, int):
                words.extend(_int_words(part))
            else:
                raise TypeError(f"cannot key a random stream on {type(part).__name__}")
        return super().__new__(cls, words)

    def __getnewargs__(self):
        return tuple(self)  # each word, as an int part, encodes as itself

    words = property(tuple)  # the words as a plain tuple, read-only

    def __repr__(self):
        return f"Key(words={self.words})"

    def child(self, i: int) -> Key:
        """``Key(*parts, i)``, by appending one word; i must be an int in [0, 2**32)."""
        if type(i) is not int:
            raise TypeError(f"a child index must be an int, not {type(i).__name__}")
        if not 0 <= i <= _WORD_MASK:
            raise ValueError(f"child index {i} is not in [0, 2**32)")
        return tuple.__new__(Key, (*self, i))

    def seed_sequence(self) -> np.random.SeedSequence:
        """A fresh, unspawned SeedSequence for this stream."""
        return np.random.SeedSequence(np.array(self, dtype=np.uint32))

    def sibling_states(self, children: range) -> list[tuple[int, int]]:
        """PCG64 ``(state, inc)`` of each child i in ``children``, a range: the
        i-th SeedSequence that ``self.seed_sequence().spawn`` gives.

        Child i's entropy is the key's words, zero-padded to SeedSequence's
        pool size, then i. numpy's SeedSequence of the key hashes the shared
        words into the pool once, with four hashmix calls per word and at
        least sixteen, which fixes the hash constant i starts from. i's four
        mixing rounds and the eight output words run once for all children,
        as uint32 arrays that wrap as SeedSequence's arithmetic does, and
        PCG64's two-step seeding last, on Python ints. The half of each mixing
        round that depends only on i is built once per word count and range,
        and kept for the next call (64 of them at most); the pool part is
        added per key. A ``PCG64`` given child i's state draws what
        ``np.random.PCG64(child_i)`` draws, for i below 2**32;
        ``tests/test_rng.py`` checks it.
        """
        pool = np.random.SeedSequence(np.array(self, dtype=np.uint32)).pool
        # the spawn index: one hashmix per pool word, as (child, pool word) arrays
        mixed = pool * _MIX_MULT_L - _spawn_term(4 * max(len(self), _POOL_SIZE), children)
        mixed ^= mixed >> 16
        return _pool_states(mixed)


class Stream:
    """The draws of ``np.random.Generator`` over a PCG64 at ``(state, inc)``.

    Each method but ``hits`` returns what the same call on that Generator
    returns, call for call. ``hits`` is the one draw the Generator lacks:
    ``tests/oracles.py::OracleGenerator`` defines it on a Generator as the loop
    of ``random`` calls it stands for. A 32-bit draw takes the low half of a
    raw word and keeps the high half for the next one, as PCG64's
    ``next_uint32`` does; 64-bit draws leave a kept half in place. Raw words
    come _BLOCK (64) at a time from the shared bit generator, on the first
    draw and whenever they run out, into the one list the stream pops them
    from.
    """

    __slots__ = ("_state", "_inc", "_words", "_half")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc
        self._words: list[int] = []
        self._half: int | None = None

    def _refill(self) -> None:
        _seat(self._state, self._inc)
        words = _BITS.random_raw(_BLOCK).tolist()
        words.reverse()
        self._words.extend(words)
        self._state = (self._state * _JUMP_MULT + self._inc * _JUMP_INC) & _MASK_128

    def _word(self) -> int:
        if not self._words:
            self._refill()
        return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            words = self._words
            if not words:
                self._refill()
            word = words.pop()
            self._half = word >> 32
            return word & _WORD_MASK
        self._half = None
        return half

    def random(self) -> float:
        words = self._words
        if not words:
            self._refill()
        return (words.pop() >> 11) * 2**-53

    def hits(self, n: int, p: float) -> Iterator[int]:
        """Each i < n, in order, whose draw ``random() < p`` hits, with n such
        draws in all; the caller may draw between yields.

        ``random()`` is ``(w >> 11) * 2**-53`` for a raw word w, which is below
        p exactly when w is below ``ceil(p * 2**53) << 11``, so each index
        compares one word with that integer and builds no float.
        """
        # random() < p always holds for p >= 1, and never for p <= 0 or NaN
        limit = math.ceil(min(p, 1.0) * 2**53) << 11 if p > 0.0 else 0
        words = self._words
        for i in range(n):
            if not words:
                self._refill()
            if words.pop() < limit:
                yield i

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
    """The stream of ``Key(master_seed, *key)``: the Generator over
    ``np.random.PCG64(Key(master_seed, *key).seed_sequence())``."""
    (seeded,) = _pool_states(Key(master_seed, *key).seed_sequence().pool)
    return Stream(*seeded)


def siblings(master_seed: int, *prefix, children: range) -> list[Stream]:
    """The streams of ``Key(master_seed, *prefix, i)`` for i in ``children``, seeded
    as one block by the prefix-child rule; the prefix needs four words or more."""
    key = Key(master_seed, *prefix)
    if len(key) < _POOL_SIZE:
        raise ValueError(f"a sibling prefix needs at least {_POOL_SIZE} words, not {len(key)}")
    return [Stream(state, inc) for state, inc in key.sibling_states(children)]


def fill_random(block: np.ndarray, states) -> None:
    """Fill row i of a float64 block with ``Generator.random``'s draws from a
    PCG64 at ``states[i]``, an ``(state, inc)`` pair."""
    for row, (state, inc) in zip(block, states):
        _seat(state, inc)
        _RANDOM(out=row)
