"""numpy's ``SeedSequence`` spawn seeding, ported for per-rep streams.

Exact-mode rep ``i`` of a cell draws from
``PCG64(SeedSequence(seed, spawn_key=(i,)))``.  Building that
``SeedSequence`` costs ~28 µs a rep: numpy assembles the entropy
(the seed's 32-bit words, zero-padded to the 4-word pool, then the
index's words) and mixes every word into the pool afresh.  The mixing
runs word by word, and its hash multipliers depend only on how many
words came before, so the pool after the seed's words is the same for
every rep.  :class:`SpawnMixer` computes it once per seed; per rep it
folds in only the index words and draws the four ``uint64`` words that
seed ``PCG64``.  :meth:`SpawnMixer.states` does that for a block of
reps in vectorised ``uint64`` arithmetic and :meth:`SpawnMixer.state`
for one rep in plain Python; both run the functions below.

The port is numpy's ``mix_entropy`` and ``generate_state`` statement
for statement (stream-stable since numpy 1.19), and
``tests/test_rng.py`` holds it to numpy's own ``SeedSequence`` on drawn
seeds, indices and blocks.  :class:`SpawnSeed` hands the words to
``PCG64`` and builds numpy's ``SeedSequence`` on demand for anything
else, so ``Generator.spawn`` gets numpy's children.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = ["SpawnMixer", "SpawnSeed"]

# The constants of numpy/random/bit_generator.pyx.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

#: ``PCG64`` asks for ``generate_state(4, np.uint64)``: 8 uint32 words.
_STATE_WORDS = 4

#: Rep indices below this fit the vectorised path's ``uint64`` arrays.
_VECTOR_LIMIT = 1 << 64

# Each value below is a Python int (one rep) or a ``uint64`` array of
# 32-bit values (a block of reps).  A product of two 32-bit values fits
# in 64 bits, and ``& _MASK32`` reduces a wrapped ``uint64`` difference
# and a negative Python int alike to numpy's ``uint32`` result.


def _hashes(hash_const: int, count: int, mult: int) -> List[Tuple[int, int]]:
    """The ``(xor, multiplier)`` pairs of ``count`` hashes from ``hash_const``.

    numpy's hash constant advances by ``mult`` at every hash whatever
    the data, so a hash's constants depend only on its position.
    """
    pairs = []
    for _ in range(count):
        advanced = (hash_const * mult) & _MASK32
        pairs.append((hash_const, advanced))
        hash_const = advanced
    return pairs


def _hash(value, xor: int, mult: int):
    """numpy's ``hashmix`` (and ``generate_state``'s step) at one position."""
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    """numpy's ``mix``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _fold(
    pool: Sequence, hashes: Iterable[Tuple[int, int]], words: Sequence
) -> List:
    """``mix_entropy``'s last loop: fold each word into every pool word."""
    pool = list(pool)
    hashes = iter(hashes)
    for word in words:
        # zip stops at the range's end without drawing a fifth hash.
        for dst, (xor, mult) in zip(range(_POOL_SIZE), hashes):
            pool[dst] = _mix(pool[dst], _hash(word, xor, mult))
    return pool


#: ``generate_state``'s constants: one hash per uint32 output word.
_STATE_HASHES = _hashes(_INIT_B, 2 * _STATE_WORDS, _MULT_B)


def _generate_state(pool: Sequence) -> List:
    """``generate_state(4, np.uint64)`` of a mixed pool."""
    cycled = list(pool) * 2  # numpy cycles the pool for 8 words
    words = [_hash(value, *pair) for value, pair in zip(cycled, _STATE_HASHES)]
    # Little-endian pairs, as numpy's ``view('<u8')``.
    return [low | (high << 32) for low, high in zip(words[0::2], words[1::2])]


def _int_words(value: int) -> List[int]:
    """numpy's ``_int_to_uint32_array``: 32-bit words, low first."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class SpawnMixer:
    """``SeedSequence(seed, spawn_key=(i,))`` for any ``i``, seed mixed once.

    Holds numpy's pool after the seed's words, and the hash constants
    the index words meet.  The seed's first four words (zero-padded, as
    numpy pads whenever a spawn key follows) are hashed in and
    cross-mixed, then any further seed words are folded in.
    """

    __slots__ = ("seed", "_pool", "_index_hashes")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        entropy = _int_words(seed)
        head = entropy[:_POOL_SIZE] + [0] * (_POOL_SIZE - len(entropy))
        tail = entropy[_POOL_SIZE:]
        # Hash positions: the head, the cross-mix (12), the tail, then
        # two index words, which cover every rep index below 2**64.
        hashes = iter(
            _hashes(_INIT_A, _POOL_SIZE * (_POOL_SIZE + len(tail) + 2), _MULT_A)
        )
        pool = [_hash(word, *next(hashes)) for word in head]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashes)))
        self._pool = _fold(pool, hashes, tail)
        self._index_hashes = list(hashes)

    def _index_pool(self, words: Sequence) -> List:
        """The pool once a rep index's words are folded in."""
        hashes = self._index_hashes
        if len(words) > 2:
            extra = _POOL_SIZE * (len(words) - 2)
            hashes = hashes + _hashes(hashes[-1][1], extra, _MULT_A)
        return _fold(self._pool, hashes, words)

    def state(self, index: int) -> np.ndarray:
        """The 4 ``uint64`` PCG64 seed words of rep ``index``."""
        words = np.array(
            _generate_state(self._index_pool(_int_words(index))), dtype=np.uint64
        )
        words.flags.writeable = False
        return words

    def states(self, start: int, stop: int) -> np.ndarray:
        """:meth:`state` of reps ``[start, stop)`` as rows, vectorised."""
        if stop > _VECTOR_LIMIT:
            rows = np.array(
                [self.state(index) for index in range(start, stop)], dtype=np.uint64
            ).reshape(-1, _STATE_WORDS)
        else:
            index = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
            pool = self._index_pool([index & _MASK32])
            if stop > 1 << 32:
                # Indices from 2**32 up have a second word; the rest do not.
                high = index >> 32
                wide = _fold(pool, self._index_hashes[_POOL_SIZE:], [high])
                pool = [np.where(high > 0, w, p) for w, p in zip(wide, pool)]
            rows = np.column_stack(_generate_state(pool))
        rows.flags.writeable = False
        return rows

    def generator(self, index: int) -> Generator:
        """``default_rng(SeedSequence(seed, spawn_key=(index,)))``."""
        return Generator(PCG64(SpawnSeed(self.state(index), self.seed, index)))

    def generators(self, start: int, stop: int) -> Iterator[Generator]:
        """:meth:`generator` of reps ``[start, stop)``, seeded in one pass."""
        seed = self.seed
        for words, index in zip(self.states(start, stop), range(start, stop)):
            yield Generator(PCG64(SpawnSeed(words, seed, index)))


class SpawnSeed(ISpawnableSeedSequence):
    """``SeedSequence(seed, spawn_key=(index,))`` with its PCG64 words ready.

    ``PCG64`` reads the precomputed words; any other ``generate_state``
    request and :meth:`spawn` go to numpy's own ``SeedSequence``, built
    on first use.
    """

    __slots__ = ("_words", "_seed", "_index", "_sequence")

    def __init__(self, words: np.ndarray, seed: int, index: int) -> None:
        self._words = words
        self._seed = seed
        self._index = index
        self._sequence = None

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == _STATE_WORDS and dtype is np.uint64:
            return self._words
        return self._numpy().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._numpy().spawn(n_children)

    def _numpy(self) -> SeedSequence:
        """numpy's own ``SeedSequence`` for this stream, built once."""
        if self._sequence is None:
            self._sequence = SeedSequence(self._seed, spawn_key=(self._index,))
        return self._sequence
