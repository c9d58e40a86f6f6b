"""Seeded, reproducible point and triple sampling.

All randomness flows through a numpy Generator seeded from the run
config, so identical seeds give identical certificate inputs.  Points of
a real carrier are drawn in blocks, one Generator call per block; a block
draw gives, in C order, the same values as one scalar draw per point.
"""
from __future__ import annotations

import math

from ._lazy import np
from .errors import ParameterError
from .spaces import (
    DEFAULT_TOL,
    FiniteCarrier,
    GMetricSpace,
    RealCarrier,
    Regime,
)

DEFAULT_RANGE = (0.0, 100.0)
DEFAULT_COUNT = 10_000
DEFAULT_SEED = 0
BLOCK = 1024  # triples drawn per Generator call, and per certificate chunk


def make_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def _draw_block(rng, carrier, lo, hi, shape: tuple) -> np.ndarray:
    """An array of ``shape`` points in one draw: indices on a finite
    carrier, floats with a trailing coordinate axis for dim >= 2."""
    if isinstance(carrier, FiniteCarrier):
        return rng.integers(0, carrier.size, size=shape)
    if carrier.dim == 1:
        return rng.uniform(lo, hi, size=shape)
    return rng.uniform(lo, hi, size=shape + (carrier.dim,))


def sample_points(space: GMetricSpace, count: int, seed: int = DEFAULT_SEED,
                  lo: float = DEFAULT_RANGE[0], hi: float = DEFAULT_RANGE[1]) -> list:
    """``count`` carrier points drawn uniformly from [lo, hi] (or the
    whole carrier for finite spaces)."""
    if count < 1:
        raise ParameterError("count must be positive")
    lo, hi = _clip_range(space, lo, hi)
    carrier = space.carrier
    points = _draw_block(make_rng(seed), carrier, lo, hi, (count,)).tolist()
    if isinstance(carrier, RealCarrier) and carrier.dim > 1:
        return [tuple(p) for p in points]
    return points


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
    first two points coincide, per the arithmetic regime's guard with
    ``tol``, is dropped, which is what redrawing it one point at a time
    would give.  A finite carrier, whose certificates take the scalar path,
    draws one index per Generator call and redraws such a triple, so
    Generator calls per triple (perfbench's ``sampling.draws_per_triple``)
    still count its redraws.  Points are Python values: ``int`` indices,
    ``float`` scalars or tuples of floats.
    """
    lo, hi = _clip_range(space, lo, hi)
    rng = make_rng(seed)
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier) and carrier.size < 2:
        raise ParameterError("cannot draw distinct pairs from a 1-point carrier")
    regime = Regime(space.exact, tol)
    if isinstance(carrier, FiniteCarrier):
        while True:
            x, y, z = (int(rng.integers(0, carrier.size)) for _ in range(3))
            if regime.distinct(x, y):
                yield (x, y, z)
    distinct = regime.distinct_rows
    tuple_points = carrier.dim > 1
    while True:
        block = _draw_block(rng, carrier, lo, hi, (BLOCK, 3))
        kept = block[distinct(block[:, 0], block[:, 1])]
        if tuple_points:
            yield from ((tuple(x), tuple(y), tuple(z)) for x, y, z in kept.tolist())
        else:
            yield from zip(*kept.T.tolist())
