"""Seeded, reproducible point and triple sampling.

All randomness flows through a numpy Generator seeded from the run
config, so identical seeds give identical certificate inputs.
"""
from __future__ import annotations

import numpy as np

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


def make_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def _draw_point(rng, carrier, lo, hi):
    if isinstance(carrier, FiniteCarrier):
        return int(rng.integers(0, carrier.size))
    if carrier.dim == 1:
        return float(rng.uniform(lo, hi))
    return tuple(float(v) for v in rng.uniform(lo, hi, size=carrier.dim))


def sample_points(space: GMetricSpace, count: int, seed: int = DEFAULT_SEED,
                  lo: float = DEFAULT_RANGE[0], hi: float = DEFAULT_RANGE[1]) -> list:
    """``count`` carrier points drawn uniformly from [lo, hi] (or the
    whole carrier for finite spaces)."""
    if count < 1:
        raise ParameterError("count must be positive")
    lo, hi = _clip_range(space, lo, hi)
    rng = make_rng(seed)
    return [_draw_point(rng, space.carrier, lo, hi) for _ in range(count)]


def _clip_range(space: GMetricSpace, lo: float, hi: float):
    c = space.carrier
    if isinstance(c, RealCarrier):
        if c.lo is not None:
            lo = max(lo, c.lo)
        if c.hi is not None:
            hi = min(hi, c.hi)
        if not lo < hi:
            raise ParameterError(f"empty sampling range [{lo}, {hi}]")
    return lo, hi


def triple_stream(space: GMetricSpace, seed: int = DEFAULT_SEED,
                  lo: float = DEFAULT_RANGE[0], hi: float = DEFAULT_RANGE[1],
                  tol: float = DEFAULT_TOL):
    """Endless stream of point triples (x, y, z) with x != y: a triple whose
    first two points coincide, per the arithmetic regime's guard with
    ``tol``, is redrawn."""
    lo, hi = _clip_range(space, lo, hi)
    rng = make_rng(seed)
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier) and carrier.size < 2:
        raise ParameterError("cannot draw distinct pairs from a 1-point carrier")
    distinct = Regime(space, tol).distinct
    while True:
        x = _draw_point(rng, carrier, lo, hi)
        y = _draw_point(rng, carrier, lo, hi)
        z = _draw_point(rng, carrier, lo, hi)
        if distinct(x, y):
            yield (x, y, z)
