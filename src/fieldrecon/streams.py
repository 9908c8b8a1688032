"""Deterministic RNG substream derivation.

Each (n, trial) cell of a sweep owns generators keyed by
(master_seed, n, trial, key): key 0 drives the spatial increments, key 1 the
temporal increments and key 2 the measurement noise.  Results therefore never
depend on execution order or on how trials are distributed over workers, and
only the generators a caller consumes are derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``master_seed``."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class PathStreams:
    """Separate generators for the two renewal processes.

    Keeping them apart guarantees the independence contract: replacing the
    temporal seed cannot change the spatial path, bit for bit.
    """

    spatial: np.random.Generator
    temporal: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "PathStreams":
        children = np.random.SeedSequence(seed).spawn(2)
        return cls(
            spatial=np.random.Generator(np.random.PCG64(children[0])),
            temporal=np.random.Generator(np.random.PCG64(children[1])),
        )


def trial_streams(master_seed: int, n: int, trial: int) -> PathStreams:
    """Path generators of one sweep cell (keys 0 and 1)."""
    return PathStreams(substream(master_seed, n, trial, 0), substream(master_seed, n, trial, 1))


def noise_stream(master_seed: int, n: int, trial: int) -> np.random.Generator:
    """Measurement-noise generator of one sweep cell (key 2)."""
    return substream(master_seed, n, trial, 2)
