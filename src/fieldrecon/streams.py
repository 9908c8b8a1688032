"""Deterministic RNG substream derivation.

Each (n, trial) cell of a sweep owns generators keyed by
(master_seed, n, trial, key): key 0 drives the spatial increments, key 1 the
temporal increments and key 2 the measurement noise.  Results therefore never
depend on execution order or on how trials are distributed over workers, and
only the generators a caller consumes are derived.

The generator of key ``key`` is bit-identical to
``Generator(PCG64(SeedSequence(master_seed, spawn_key=key)))``.  Rather than
build one numpy ``SeedSequence`` per key, ``cell_streams`` hashes the keys of
a whole block of cells in one vectorised pass of the same mixing (O'Neill's
``seed_seq`` design behind numpy's ``SeedSequence``) and hands each row of
seed words to PCG64.  ``numpy.random`` is imported on the first derivation,
not with the package.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

# numpy.random.SeedSequence's pool size, hash and mix constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64 seeds itself from generate_state(4, np.uint64): eight uint32 words,
# drawn cyclically from the pool.
_SEED_WORDS = 4

# Cells whose keys one hashing pass covers.
_BLOCK_CELLS = 256


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The chain init * mult**i (mod 2**32) for i < count, as uint32."""
    chain = [init]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    constants = np.array(chain, dtype=np.uint32)
    constants.flags.writeable = False  # shared by every caller
    return constants


def _words(value: int, what: str) -> list[int]:
    """``value`` as little-endian uint32 words, the way SeedSequence reads it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{what} must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _key_words(keys: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each key's uint32 words, left-aligned in a zero-padded matrix, and
    each key's word count."""
    try:
        flat = np.asarray(keys)
    except ValueError:  # keys of different lengths
        flat = None
    if flat is not None and flat.ndim == 2 and flat.dtype.kind in "iu":
        if flat.size and flat.min() < 0:
            raise ValueError("stream keys must be non-negative")
        if not flat.size or flat.max() <= _MASK32:
            # One word per entry: the common case, converted in one step.
            return flat.astype(np.uint32), np.full(len(flat), flat.shape[1])
    rows = [[w for entry in key for w in _words(entry, "stream keys")] for key in keys]
    lengths = np.array([len(row) for row in rows], dtype=int)
    matrix = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.uint32)
    for i, row in enumerate(rows):
        matrix[i, : len(row)] = row
    return matrix, lengths


def _master_pool(master_seed: int) -> tuple[list[int], int]:
    """Pool after mixing in the master seed, and the hash constants used.

    This part of the pool is the same for every non-empty key: the master's
    words are zero-padded to the pool size and come first.
    """
    words = _words(master_seed, "master_seed")
    words += [0] * (_POOL_SIZE - len(words))
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(words) + 1).tolist()
    calls = 0

    def hashmix(value: int) -> int:
        nonlocal calls
        value = (value ^ consts[calls]) * consts[calls + 1] & _MASK32
        calls += 1
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool, calls


def _seed_words(master_seed: int, keys: Sequence[Sequence[int]]) -> np.ndarray:
    """Row i holds ``SeedSequence(master_seed, spawn_key=keys[i])
    .generate_state(4, np.uint64)``; every key must be non-empty."""
    base, start = _master_pool(master_seed)
    words, lengths = _key_words(keys)
    width = words.shape[1]
    ragged = bool((lengths != width).any())
    consts = _hash_constants(_INIT_A, _MULT_A, start + _POOL_SIZE * width + 1)
    pool = np.empty((len(words), _POOL_SIZE), dtype=np.uint32)
    pool[:] = base
    for j in range(width):
        # Each key word is hashed once per pool word, with consecutive
        # constants, and mixed into that pool word.
        c = start + _POOL_SIZE * j
        hashed = words[:, j, None] ^ consts[c : c + _POOL_SIZE]
        hashed *= consts[c + 1 : c + _POOL_SIZE + 1]
        hashed ^= hashed >> _XSHIFT
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        mixed ^= mixed >> _XSHIFT
        if ragged:
            np.copyto(pool, mixed, where=(lengths > j)[:, None])
        else:
            pool = mixed
    consts = _hash_constants(_INIT_B, _MULT_B, 2 * _SEED_WORDS + 1)
    state = (np.concatenate((pool, pool), axis=1) ^ consts[:-1]) * consts[1:]
    state ^= state >> _XSHIFT
    # Pairs of words read as little-endian uint64, as numpy assembles them.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _generator_factory() -> Callable[[np.ndarray], Generator]:
    """Build a Generator from one row of seed words; imports numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        """Seed words hashed ahead of time, handed to PCG64 as they are."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
                raise ValueError(f"only {len(self.words)} uint64 seed words were hashed")
            return self.words

    return lambda words: Generator(PCG64(HashedSeed(words)))


def cell_streams(
    master_seed: int, cells: Iterable[Sequence[int]], count: int
) -> Iterator[tuple[Generator, ...]]:
    """For each cell in order, the generators of keys (*cell, 0) ..
    (*cell, count - 1) under ``master_seed``.

    Cells are read and hashed a block at a time, and a cell's generators
    are built only when it is reached.
    """
    make = _generator_factory()
    cells = iter(cells)
    while block := list(itertools.islice(cells, _BLOCK_CELLS)):
        words = _seed_words(master_seed, [(*cell, k) for cell in block for k in range(count)])
        for i in range(0, len(words), count):
            yield tuple(make(row) for row in words[i : i + count])


def substream(master_seed: int, *key: int) -> Generator:
    """Generator for the substream identified by ``key`` under ``master_seed``."""
    if not key:
        raise ValueError("a stream key needs at least one entry")
    return _generator_factory()(_seed_words(master_seed, [key])[0])


@dataclass(frozen=True)
class PathStreams:
    """Separate generators for the two renewal processes.

    Keeping them apart guarantees the independence contract: replacing the
    temporal seed cannot change the spatial path, bit for bit.
    """

    spatial: Generator
    temporal: Generator

    @classmethod
    def from_seed(cls, seed: int) -> "PathStreams":
        """Keys (0,) and (1,) under ``seed``: numpy's ``SeedSequence(seed).spawn(2)``."""
        return cls(*next(cell_streams(seed, [()], 2)))


def trial_streams(master_seed: int, n: int, trial: int) -> PathStreams:
    """Path generators of one sweep cell (keys 0 and 1)."""
    return PathStreams(*next(cell_streams(master_seed, [(n, trial)], 2)))
