import numpy as np
import pytest

from fieldrecon.streams import noise_stream, substream, trial_streams


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
    streams = trial_streams(99, 128, 5)
    gens = {
        "spatial": streams.spatial,
        "temporal": streams.temporal,
        "noise": noise_stream(99, 128, 5),
    }
    values = {tag: gen.random(4).tobytes() for tag, gen in gens.items()}
    assert len(set(values.values())) == len(gens)
    assert np.array_equal(trial_streams(99, 128, 5).spatial.random(4), np.frombuffer(values["spatial"]))
    # Spawn keys 0, 1, 2 under (master_seed, n, trial) name the three streams.
    for key, tag in enumerate(gens):
        assert substream(99, 128, 5, key).random(4).tobytes() == values[tag]


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        substream(-1, 0)
