"""Deterministic RNG substream derivation.

Each (n, trial) cell of a sweep owns generators keyed by
(master_seed, n, trial, key): key 0 drives the spatial increments, key 1 the
temporal increments and key 2 the measurement noise.  Results therefore never
depend on execution order or on how trials are distributed over workers, and
only the generators a caller consumes are derived.

The generator of key ``key`` is bit-identical to
``Generator(PCG64(SeedSequence(master_seed, spawn_key=key)))``.  Rather than
build one numpy ``SeedSequence`` per key, ``cell_streams`` lays out the
entropy of a whole block of cells ``(master, *key)`` as ``SeedSequence`` does
and hashes every row in one vectorised pass of the same mixing (O'Neill's
``seed_seq`` design behind numpy's ``SeedSequence``), then hands each row of
seed words to PCG64.  Master seeds lie in [0, 2**64) and key entries in
[0, 2**32), so every entropy row has one layout: the master's two words,
two zero words, then one word per key entry.  ``numpy.random`` is imported
on the first derivation, not with the package.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .pde_core import integer

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


def _entropy_words(cells: Sequence[Sequence[int]]) -> np.ndarray:
    """Each cell's SeedSequence entropy as a row of uint32 words.

    A cell is ``(master, *key)``: a master below 2**64 and one or more key
    entries below 2**32, the same number in every cell of a block.  As
    SeedSequence assembles it, the row is ``[master lo, master hi, 0, 0,
    key words...]``.
    """
    flat = np.asarray(cells)  # ValueError when the cells differ in length
    if flat.shape[1] < 2:
        raise ValueError("a stream needs a master seed and at least one key entry")
    if flat.dtype.kind not in "iu":
        # Masters of 2**63 and up read as float64, which has lost their low
        # bits, or as object: convert the cells themselves, checked first,
        # since a uint64 conversion would take 1.5 or "5".
        flat = np.array(cells, dtype=object)
        if not all(isinstance(v, (int, np.integer)) for v in flat.flat):
            raise TypeError("stream seeds and keys must be integers")
    if flat.min() < 0 or flat[:, 0].max() >= 2**64 or flat[:, 1:].max(initial=0) > _MASK32:
        raise ValueError("stream seeds must lie in [0, 2**64) and key entries in [0, 2**32)")
    flat = flat.astype(np.uint64)
    words = np.zeros((len(flat), _POOL_SIZE + flat.shape[1] - 1), dtype=np.uint32)
    words[:, 0] = flat[:, 0] & _MASK32
    words[:, 1] = flat[:, 0] >> 32
    words[:, _POOL_SIZE:] = flat[:, 1:]
    return words


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` with constants chain[:-1], chain[1:]."""
    hashed = (values ^ chain[:-1]) * chain[1:]
    hashed ^= hashed >> _XSHIFT
    return hashed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    mixed ^= mixed >> _XSHIFT
    return mixed


def _seed_words(cells: Sequence[Sequence[int]]) -> np.ndarray:
    """Row i holds ``SeedSequence(master, spawn_key=key).generate_state(4,
    np.uint64)`` for ``cells[i] = (master, *key)``; every key must be
    non-empty."""
    words = _entropy_words(cells)
    width = words.shape[1]
    # SeedSequence's hashmix calls take consecutive constants of one chain:
    # calls 0-3 hash the first pool-size words, calls 4-15 cross-mix the
    # pool, and calls 4j .. 4j+3 hash the later word j once per pool word.
    chain = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width + 1)[:, None]
    pool = _hashmix(words[:, :_POOL_SIZE].T, chain[: _POOL_SIZE + 1])
    for src in range(_POOL_SIZE):
        # pool[src] is read, never written, while it is mixed into the others.
        dst = [i for i in range(_POOL_SIZE) if i != src]
        c = _POOL_SIZE + len(dst) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[c : c + len(dst) + 1]))
    for j in range(_POOL_SIZE, width):
        hashed = _hashmix(words[:, j], chain[_POOL_SIZE * j : _POOL_SIZE * (j + 1) + 1])
        pool = _mix(pool, hashed)
    chain = _hash_constants(_INIT_B, _MULT_B, 2 * _SEED_WORDS + 1)[:, None]
    state = _hashmix(np.concatenate((pool, pool)), chain)
    # Pairs of words read as little-endian uint64, as numpy assembles them.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


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


def cell_streams(cells: Iterable[Sequence[int]], count: int) -> Iterator[tuple[Generator, ...]]:
    """For each cell ``(master, *key)`` in order, the generators of keys
    (*key, 0) .. (*key, count - 1) under ``master``.

    Every cell holds a master, and ``count`` is an integer of at least 1,
    so every generator's key is non-empty; ValueError otherwise.  Cells are
    read and hashed a block at a time, and a cell's generators are built
    only when it is reached.
    """
    count = integer("count", count)
    if count < 1:
        raise ValueError(f"a cell needs at least one generator, got count={count}")
    make = _generator_factory()
    cells = iter(cells)
    while block := list(itertools.islice(cells, _BLOCK_CELLS)):
        words = _seed_words([(*cell, k) for cell in block for k in range(count)])
        for i in range(0, len(words), count):
            yield tuple(make(row) for row in words[i : i + count])


def substream(master_seed: int, *key: int) -> Generator:
    """Generator for the substream identified by ``key`` under ``master_seed``."""
    return _generator_factory()(_seed_words([(master_seed, *key)])[0])


def trial_streams(master_seed: int, n: int, trial: int) -> tuple[Generator, Generator]:
    """Spatial and temporal path generators of one sweep cell (keys 0 and 1)."""
    return next(cell_streams([(master_seed, n, trial)], 2))
