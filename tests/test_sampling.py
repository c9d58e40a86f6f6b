"""The pure-Python generator behind ``sampling.make_rng`` against the
installed numpy's ``default_rng``: same pool, same state, same draws."""
import random

import numpy as np
import pytest

from gmetric import sampling
from gmetric.sampling import DefaultRng

_SEEDER = random.Random(15)
SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**64 + 7, int("9" * 1000)]
         + [_SEEDER.getrandbits(bits) for bits in range(1, 301)])  # 300 seeds, 1 to 300 bits
BOUNDS = (2, 3, 5, 8, 300, 7919, 2**31, 2**32)


def test_pool_and_state_equal_numpy():
    for seed in SEEDS:
        assert sampling._seed_pool(seed) == np.random.SeedSequence(seed).pool.tolist(), seed
        assert DefaultRng(seed).bit_state() == np.random.default_rng(seed).bit_generator.state, seed


def test_scalar_integers_equal_numpy():
    for seed in SEEDS:
        ours, ref = DefaultRng(seed), np.random.default_rng(seed)
        for n in BOUNDS:
            for low in (0, 5):
                drawn = [ours.integers(low, low + n) for _ in range(3)]
                assert drawn == [int(ref.integers(low, low + n)) for _ in range(3)], (seed, n)
        assert ours.bit_state() == ref.bit_generator.state, seed
        assert ours._generator is None  # every draw above stayed in Python


def test_rejection_draws_equal_numpy():
    # 2**32 % n is about n / 3 here, so a quarter of the first words is rejected
    n = 3 * 2**30
    ours, ref = DefaultRng(7), np.random.default_rng(7)
    assert [ours.integers(0, n) for _ in range(400)] == ref.integers(0, n, size=400).tolist()
    assert ours.bit_state() == ref.bit_generator.state


def test_scalar_uniform_equals_numpy():
    spans = [(0.0, 100.0), (0.0, 1.0), (-1e300, 1e300), (1.0, 1.0 + 2**-40), (0.0, 5e-324),
             (0, 10)]
    for seed in SEEDS:
        ours, ref = DefaultRng(seed), np.random.default_rng(seed)
        for _ in range(3):  # an odd count leaves numpy's buffered upper half-word set
            assert ours.integers(0, 300) == ref.integers(0, 300)
        for lo, hi in spans:
            drawn = [ours.uniform(lo, hi) for _ in range(2)]
            assert drawn == [ref.uniform(lo, hi) for _ in range(2)], (seed, lo, hi)
            assert all(type(v) is float for v in drawn)
        assert ours.bit_state() == ref.bit_generator.state, seed  # half-word kept
        assert ours._generator is None  # every draw above stayed in Python
        # hand-off: numpy continues the stream, half-word included
        assert ours.integers(0, 300, size=5).tolist() == ref.integers(0, 300, size=5).tolist()
        assert ours.uniform(-1.0, 1.0) == ref.uniform(-1.0, 1.0)


@pytest.mark.parametrize("span", [(0.0, float("inf")), (-1e308, 1e308), (float("nan"), 1.0)],
                         ids=["inf", "overflow", "nan"])
def test_uniform_bad_span_raises_as_numpy_does(span):
    with pytest.raises(OverflowError):
        np.random.default_rng(0).uniform(*span)
    with pytest.raises(OverflowError):
        DefaultRng(0).uniform(*span)


@pytest.mark.parametrize("scalars", [1, 3, 4])
def test_scalar_then_block_handoff(scalars):
    # an odd count leaves numpy's buffered upper half-word for the block
    ours, ref = DefaultRng(11), np.random.default_rng(11)
    for _ in range(scalars):
        assert ours.integers(0, 8) == ref.integers(0, 8)
    assert (ours.integers(0, 300, size=(5, 3)) == ref.integers(0, 300, size=(5, 3))).all()
    assert ours.integers(0, 8) == ref.integers(0, 8)  # numpy serves every later call
    assert ours.uniform(0.0, 1.0, size=4).tolist() == ref.uniform(0.0, 1.0, size=4).tolist()
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("call", [
    lambda rng: rng.integers(0, 2**33),
    lambda rng: rng.integers(0, 1),
    lambda rng: rng.integers(8),
    lambda rng: rng.integers(0, 8, endpoint=True),
    lambda rng: rng.integers(0, 8, dtype=np.int32),
    lambda rng: rng.uniform(-1.0, 1.0),
], ids=["wide", "one-value", "high-omitted", "endpoint", "int32", "uniform"])
def test_calls_numpy_serves_continue_the_stream(call):
    ours, ref = DefaultRng(5), np.random.default_rng(5)
    assert ours.integers(0, 8) == ref.integers(0, 8)
    assert call(ours) == call(ref)
    assert ours.integers(0, 8) == ref.integers(0, 8)


def test_numpy_integer_seed():
    assert DefaultRng(np.int64(3)).bit_state() == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("seed", [-1, -(2**64), 1.5, 2.0, True, "5"],
                         ids=["minus-one", "minus-2^64", "float", "integral-float", "bool", "str"])
def test_bad_seeds_raise_as_numpy_does(seed):
    if isinstance(seed, bool):
        expected = TypeError  # numpy takes True as 1; a seed is an int, not a flag
    else:
        with pytest.raises(Exception) as numpy_error:
            np.random.SeedSequence(seed)
        expected = numpy_error.type
    with pytest.raises(expected):
        sampling.make_rng(seed)
