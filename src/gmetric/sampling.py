"""Seeded, reproducible point and triple sampling.

All randomness flows through one generator per run, made by
:func:`make_rng` from the run config's seed, so identical seeds give
identical certificate inputs.  That generator is :class:`DefaultRng`, the
stream of ``numpy.random.default_rng(seed)`` bit for bit: its scalar
bounded integers (the finite carrier's indices) and scalar uniforms
(:func:`sample_points`) are drawn in plain Python, so a finite certificate
and a sampled axiom check never import numpy, and any other draw continues
the same stream in a numpy ``Generator``.  :func:`triple_stream` draws real
points in blocks, which give, in C order, the scalar draws' values.
"""
from __future__ import annotations

import math
import operator

from ._lazy import np
from .errors import ParameterError
from .spaces import (
    DEFAULT_TOL,
    FiniteCarrier,
    GMetricSpace,
    RealCarrier,
    Regime,
    points_distinct,
)

DEFAULT_RANGE = (0.0, 100.0)
DEFAULT_COUNT = 10_000
COUNT_MAX = 10 ** 7  # largest sampling.count: 80 s of finite EXT-III verdicts, 2-core VM
DEFAULT_SEED = 0
BLOCK = 1024  # triples drawn per Generator call, and per certificate chunk


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed) -> list:
    """``numpy.random.SeedSequence(seed).pool``: four 32-bit words hashed
    from the seed's little-endian 32-bit words (numpy raises the same
    errors for a seed that is not a nonnegative integer)."""
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):
        raise TypeError(f"SeedSequence expects int or sequence of ints for entropy not {seed}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    h = 0x43B0D7E5

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class DefaultRng:
    """The generator ``numpy.random.default_rng(seed)`` makes, bit for bit.

    PCG64 (XSL-RR 128/64) seeded through SeedSequence, with numpy's
    buffered upper half-word for 32-bit draws.  A scalar
    ``integers(low, high)`` with ``2 <= high - low <= 2**32`` is drawn here
    by Lemire's rejection method, and a scalar ``uniform(low, high)`` with
    a finite span as numpy's ``random_uniform``, which leaves the buffered
    half-word alone.  The first call it does not cover (``size=``, a wider
    range, any other attribute) moves the state, buffered half-word
    included, into a numpy ``Generator``, which serves that and every later
    call.
    """

    def __init__(self, seed: int):
        pool, words = _seed_pool(seed), []
        h = 0x8B51F9DD
        for i in range(8):  # SeedSequence.generate_state(8, uint32)
            value = pool[i % 4] ^ h
            h = h * 0x58F38DED & _MASK32
            value = value * h & _MASK32
            words.append(value ^ value >> 16)
        init = words[1] << 96 | words[0] << 64 | words[3] << 32 | words[2]
        self._inc = (words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6]) << 1 & _MASK128 | 1
        self._state = ((self._inc + init) * _PCG64_MULT + self._inc) & _MASK128
        self._has_uint32 = 0
        self._uinteger = 0
        self._generator = None

    def integers(self, low, high=None, size=None, dtype="int64", endpoint=False):
        if (size is None and dtype == "int64" and not endpoint and self._generator is None
                and type(low) is int and type(high) is int and 1 < high - low <= 1 << 32):
            n = high - low
            while True:  # Lemire: accept unless the low word is below 2**32 % n
                if self._has_uint32:
                    self._has_uint32 = 0
                    m = self._uinteger * n
                else:
                    word = self._next64()
                    self._has_uint32, self._uinteger = 1, word >> 32
                    m = (word & _MASK32) * n
                low_word = m & _MASK32
                if low_word >= n or low_word >= (1 << 32) % n:
                    return low + (m >> 32)
        return self._numpy().integers(low, high, size, dtype, endpoint)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None and self._generator is None and {type(low), type(high)} <= {int, float}:
            low, high = float(low), float(high)
            if math.isfinite(high - low):  # numpy's random_uniform on next_double
                return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)
        return self._numpy().uniform(low, high, size)

    def _next64(self) -> int:  # one PCG64 step: the next 64-bit output word
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        rot = s >> 122
        word = (s >> 64 ^ s) & _MASK64
        return (word >> rot | word << 64 - rot) & _MASK64

    def bit_state(self) -> dict:
        """The state in the form of numpy's ``bit_generator.state``."""
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has_uint32, "uinteger": self._uinteger}

    def _numpy(self):
        if self._generator is None:
            bit_generator = np.random.PCG64()
            bit_generator.state = self.bit_state()
            self._generator = np.random.Generator(bit_generator)
        return self._generator

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._numpy(), name)


def make_rng(seed: int = DEFAULT_SEED) -> DefaultRng:
    return DefaultRng(seed)


def sample_points(space: GMetricSpace, count: int, seed: int = DEFAULT_SEED,
                  lo: float = DEFAULT_RANGE[0], hi: float = DEFAULT_RANGE[1]) -> list:
    """``count`` carrier points drawn uniformly from [lo, hi] (or the
    whole carrier for finite spaces), one scalar draw per real coordinate."""
    if count < 1:
        raise ParameterError("count must be positive")
    lo, hi = _clip_range(space, lo, hi)
    carrier, rng = space.carrier, make_rng(seed)
    if isinstance(carrier, FiniteCarrier):
        return rng.integers(0, carrier.size, size=count).tolist()
    if carrier.dim == 1:
        return [rng.uniform(lo, hi) for _ in range(count)]
    return [tuple(rng.uniform(lo, hi) for _ in range(carrier.dim)) for _ in range(count)]


def _clip_range(space: GMetricSpace, lo: float, hi: float):
    c = space.carrier
    if isinstance(c, RealCarrier):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError(f"malformed sampling.range [{lo}, {hi}]: bounds must be finite")
        c_lo, c_hi = c.span
        lo, hi = max(lo, c_lo), min(hi, c_hi)
        if not lo < hi:
            raise ParameterError(f"empty sampling range [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ParameterError(f"malformed sampling.range [{lo}, {hi}]: hi - lo overflows")
    return lo, hi


def triple_stream(space: GMetricSpace, seed: int = DEFAULT_SEED,
                  lo: float = DEFAULT_RANGE[0], hi: float = DEFAULT_RANGE[1],
                  tol: float = DEFAULT_TOL):
    """Endless stream of point triples (x, y, z) with x != y.

    On a real carrier triples are drawn ``BLOCK`` at a time; a triple whose
    first two points coincide, per the point rule :func:`points_distinct`
    with ``tol``, is dropped, which is what redrawing it one point at a time
    would give.  A finite carrier, whose certificates tally each chunk by
    distinct triple, draws one index per ``integers`` call, in Python and
    without numpy (see :class:`DefaultRng`), and redraws such a triple, so
    Generator calls per triple (perfbench's ``sampling.draws_per_triple``)
    still count its redraws.  Points are Python values: ``int`` indices, ``float`` scalars
    or tuples of floats.  A real range in which no two points are distinct
    raises ParameterError at the first ``next``, since no triple could be kept;
    a real stream raises it too once ``BLOCK`` blocks in a row keep no triple.
    """
    lo, hi = _clip_range(space, lo, hi)
    rng = make_rng(seed)
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier) and carrier.size < 2:
        raise ParameterError("cannot draw distinct pairs from a 1-point carrier")
    distinct = points_distinct(carrier, tol)
    if isinstance(carrier, FiniteCarrier):
        m = carrier.size
        while True:
            x, y, z = rng.integers(0, m), rng.integers(0, m), rng.integers(0, m)
            if distinct(x, y):
                yield (x, y, z)
    # the pair farthest past the slack: the ends or, for tol >= 1, the pair
    # symmetric about 0 (tuple points do no better than repeated coordinates)
    c = min(-lo, hi)
    if not (distinct(lo, hi) or c > 0 and distinct(-c, c)):
        raise ParameterError(f"malformed sampling.range [{lo}, {hi}]: no two points in it "
                             f"are distinct at tol {tol}")
    distinct_rows = Regime(space.exact, tol).distinct_rows
    tuple_points = carrier.dim > 1
    shape = (BLOCK, 3, carrier.dim) if tuple_points else (BLOCK, 3)
    empty = 0  # consecutive blocks that kept no triple
    while True:
        block = rng.uniform(lo, hi, size=shape)
        kept = block[distinct_rows(block[:, 0], block[:, 1])]
        empty = 0 if len(kept) else empty + 1
        if empty == BLOCK:
            raise ParameterError(f"malformed sampling.range [{lo}, {hi}]: no distinct pair in "
                                 f"{BLOCK * BLOCK} draws at tol {tol}")
        if tuple_points:
            yield from ((tuple(x), tuple(y), tuple(z)) for x, y, z in kept.tolist())
        else:
            yield from zip(*kept.T.tolist())
