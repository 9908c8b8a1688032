import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldrecon
from fieldrecon.streams import cell_streams, substream, trial_streams

# Edges of the stream domain: masters in [0, 2**64), key entries in [0, 2**32).
MASTER_EDGES = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1)
KEY_EDGES = (0, 2**32 - 1)


def numpy_stream(master_seed, key):
    """The reference: numpy's own SeedSequence -> PCG64 derivation."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


def test_substream_reproducible():
    a = substream(7, 3, 1).random(8)
    b = substream(7, 3, 1).random(8)
    assert np.array_equal(a, b)


def test_substreams_differ_by_key():
    draws = {
        key: substream(7, *key).random(4).tobytes()
        for key in [(0,), (1,), (0, 0), (0, 1), (1, 0)]
    }
    assert len(set(draws.values())) == len(draws)


def test_trial_streams_are_independent():
    spatial, temporal = trial_streams(99, 128, 5)
    gens = {
        "spatial": spatial,
        "temporal": temporal,
        "noise": substream(99, 128, 5, 2),
    }
    values = {tag: gen.random(4).tobytes() for tag, gen in gens.items()}
    assert len(set(values.values())) == len(gens)
    assert np.array_equal(trial_streams(99, 128, 5)[0].random(4), np.frombuffer(values["spatial"]))
    # Spawn keys 0, 1, 2 under (master_seed, n, trial) name the three streams.
    for key, tag in enumerate(gens):
        assert substream(99, 128, 5, key).random(4).tobytes() == values[tag]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    master=st.one_of(st.sampled_from(MASTER_EDGES), st.integers(0, 2**64 - 1)),
    key=st.lists(
        st.one_of(st.sampled_from(KEY_EDGES), st.integers(0, 2**32 - 1)), min_size=1, max_size=4
    ),
)
def test_substream_matches_numpy_seed_sequence(master, key):
    ours = substream(master, *key).bit_generator.random_raw(4)
    assert np.array_equal(ours, numpy_stream(master, key).bit_generator.random_raw(4))


def test_block_straddling_2_63_matches_numpy():
    # numpy reads a block holding masters of 2**63 and up as float64; the
    # low bits of those masters must survive the conversion.
    cells = [(2**63 - 1, 7), (2**63, 7), (2**63 + 1, 2**32 - 1), (5, 0), (2**64 - 2, 3)]
    for (master, *key), gens in zip(cells, cell_streams(cells, 2)):
        for k, gen in enumerate(gens):
            expected = numpy_stream(master, (*key, k)).bit_generator.random_raw(4)
            assert np.array_equal(gen.bit_generator.random_raw(4), expected)


@pytest.mark.parametrize(
    "cells, error",
    [
        ([(2**64, 1)], ValueError),
        ([(2**128 + 5, 1)], ValueError),
        ([(5, 2**32)], ValueError),
        ([(5, 1), (5, 1, 2)], ValueError),
        ([(2**63, 1.5)], TypeError),
        ([(5, 1.5)], TypeError),
        ([(2**63, "5")], TypeError),
    ],
    ids=["master-2^64", "master-2^128+5", "key-2^32", "ragged", "float-wide", "float", "string"],
)
def test_cells_outside_the_domain_are_refused(cells, error):
    with pytest.raises(error):
        next(cell_streams(cells, 2))


def test_cell_without_master_is_refused_by_rule():
    # Not SeedSequence(0) and SeedSequence(1): with no master, the stream
    # index would take its place.
    with pytest.raises(ValueError, match="a master seed and at least one key entry"):
        next(cell_streams([()], 2))


@pytest.mark.parametrize("count", [0, -1])
def test_cell_streams_refuses_count_below_one(count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        next(cell_streams([(5, 1)], count))


@pytest.mark.parametrize("count", [True, 2.0, "2"])
def test_cell_streams_reads_count_as_an_integer(count):
    # True would derive one generator per cell, and 2.0 two.
    with pytest.raises(ValueError, match="count must be an integer"):
        next(cell_streams([(5, 1)], count))


def test_path_streams_from_seed_matches_numpy_spawn():
    children = np.random.SeedSequence(42).spawn(2)
    for gen, child in zip((substream(42, 0), substream(42, 1)), children):
        reference = np.random.Generator(np.random.PCG64(child))
        assert np.array_equal(gen.random(5), reference.random(5))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        substream(-1, 0)
    for key in ((-1,), (3, -2), (2**64, -1)):
        with pytest.raises(ValueError):
            substream(5, *key)
    with pytest.raises(ValueError):
        next(cell_streams([(5, 1, -3)], 2))
    with pytest.raises(ValueError):
        next(cell_streams([(-5, 1, 3)], 2))
    # A negative master inside a block, with word-sized and wider keys.
    for block in ([(5, 1, 3), (-5, 1, 3)], [(5, 2**64, 3), (-5, 1, 3)]):
        with pytest.raises(ValueError):
            next(cell_streams(block, 2))
    with pytest.raises(ValueError):
        substream(5)


def test_block_order_equals_one_key_order():
    # More cells than one hashing pass covers, at two densities.
    cells = [(2024, n, trial) for n in (100, 6400) for trial in range(300)]
    for cell, gens in zip(cells, cell_streams(iter(cells), 3)):
        for k, gen in enumerate(gens):
            one_key = substream(*cell, k)
            assert gen.bit_generator.random_raw() == one_key.bit_generator.random_raw()


def test_block_generators_are_independent():
    # Drawing heavily from one generator of a block leaves the draws of
    # every later one, in the same cell and the next, unchanged.
    cells = [(3, 128, 0), (3, 128, 1)]
    fresh = [gen.random(4) for gens in cell_streams(cells, 3) for gen in gens]
    assert len({draws.tobytes() for draws in fresh}) == len(fresh)
    for i in range(len(fresh)):
        gens = [gen for cell_gens in cell_streams(cells, 3) for gen in cell_gens]
        gens[i].random(1000)
        for later, expected in zip(gens[i + 1 :], fresh[i + 1 :]):
            assert np.array_equal(later.random(4), expected)


def run_fresh(code):
    """The last stdout line of ``code`` run by a fresh interpreter that
    imports this checkout's package."""
    src = str(Path(fieldrecon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return out.stdout.splitlines()[-1]


# numpy.random loads with the first stream; the pool machinery only when a
# sweep with workers > 1 starts a pool.
@pytest.mark.parametrize("module", ["numpy.random", "concurrent.futures.process", "multiprocessing"])
def test_import_leaves_module_unloaded(module):
    code = f"import sys, fieldrecon, fieldrecon.cli; print({module!r} in sys.modules)"
    assert run_fresh(code) == "False"


def test_sequential_sweep_and_verify_leave_multiprocessing_unloaded():
    code = (
        "import sys\n"
        "from fieldrecon import ExperimentConfig, NoiseSpec, RenewalSpec, cli, run_sweep\n"
        "run_sweep(ExperimentConfig('diffusion', 3, (64, 128), 2, RenewalSpec(), NoiseSpec(), 0), workers=1)\n"
        "assert cli.main(['verify', '--suite', 'ode']) == 0\n"
        "print('multiprocessing' in sys.modules)"
    )
    assert run_fresh(code) == "False"
