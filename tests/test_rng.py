"""The engine rng is numpy's own Generator on PCG64; its only addition is
the 10-word stream position that checkpoints store."""

import numpy as np
import pytest

from mvfcn import EngineRng
from mvfcn.errors import CheckpointError


def _mixed_draws(gen):
    """The same sequence of scalar and array draws the engine makes."""
    return [
        np.asarray(gen.uniform(-2.0, 2.0)),
        gen.uniform(size=(3, 5)),
        gen.permutation(11),
        gen.random(7),
        gen.uniform(0.5, 1.0, size=4),
    ]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_is_a_numpy_generator_on_pcg64(seed):
    rng = EngineRng(seed)
    assert isinstance(rng, np.random.Generator)
    assert isinstance(rng.bit_generator, np.random.PCG64)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_draws_and_position_equal_numpy_pcg64(seed):
    rng, ref = EngineRng(seed), np.random.Generator(np.random.PCG64(seed))
    for got, want in zip(_mixed_draws(rng), _mixed_draws(ref)):
        assert np.array_equal(got, want)
    st = ref.bit_generator.state
    words = [int(x) for x in rng.state_words()]
    assert sum(words[i] << (32 * i) for i in range(4)) == st["state"]["state"]
    assert sum(words[4 + i] << (32 * i) for i in range(4)) == st["state"]["inc"]
    assert words[8:] == [st["has_uint32"], st["uinteger"]]
    assert rng.bit_generator.state == st


def test_round_trip_with_a_buffered_uint32():
    rng = EngineRng(21)
    rng.uniform(size=5)
    rng.integers(2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    words = rng.state_words()
    restored = EngineRng(0)
    restored.set_state_words(words)
    assert np.array_equal(restored.state_words(), words)
    expected = [rng.integers(2**32, size=3, dtype=np.uint32), *_mixed_draws(rng)]
    got = [restored.integers(2**32, size=3, dtype=np.uint32), *_mixed_draws(restored)]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
    assert np.array_equal(restored.state_words(), rng.state_words())


@pytest.mark.parametrize("count", [9, 11])
def test_wrong_word_count_refused(count):
    with pytest.raises(CheckpointError, match="10 words"):
        EngineRng(0).set_state_words(np.zeros(count, np.uint32))
