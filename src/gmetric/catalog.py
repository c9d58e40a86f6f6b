"""Built-in spaces, self-maps, gauges, and weight functions.

Catalog names are plain strings so they can appear in run configs.
Parameterized entries encode their parameter in the name: ``scale-0.5``,
``constant-3``, ``finite-uniform-4``, ``linear-0.9``, ``reciprocal-cap-2``.

The real spaces, maps and gauges also carry numpy batch forms (``g_batch``,
``apply_batch``, ``evaluate_batch``) that give, element by element, the
same floats as their scalar forms; sampled certificates use them.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

from ._lazy import np
from .errors import ConfigError
from .dynamics import SelfMap
from .spaces import (FiniteCarrier, FiniteMetric, GMetricSpace, RealCarrier, build_gmetric,
                     parse_rational)

if TYPE_CHECKING:  # get_gauge and get_aux import them when called
    from .conditions import AuxWeight, GaugeFunction

# Largest m of ``finite-uniform-<m>``: building and validating its m x m table
# takes about 0.13 s at m = 300 and grows as m^2 (a uniform table passes the
# triangle inequality by its spread, without the m^3 check).
FINITE_UNIFORM_MAX = 300

# The half-line with G = max pairwise absolute difference. This is the
# home of the worked moebius example; scale/step/constant maps live here too.
_NONNEG = RealCarrier(dim=1, lo=0.0)


def _absmax_g(x, y, z):
    return max(abs(x - y), abs(y - z), abs(z - x))


def _absmax_g_batch(x, y, z):
    return np.maximum(np.maximum(np.abs(x - y), np.abs(y - z)), np.abs(z - x))


def _perimeter_g(x, y, z):  # elementwise on arrays as written
    return abs(x - y) + abs(y - z) + abs(z - x)


def _drop_z_g(x, y, z):  # elementwise on arrays as written
    return abs(x - y)


def space_absmax() -> GMetricSpace:
    return GMetricSpace(carrier=_NONNEG, g=_absmax_g, name="absmax", g_batch=_absmax_g_batch)


def space_perimeter() -> GMetricSpace:
    return GMetricSpace(carrier=RealCarrier(dim=1), g=_perimeter_g, name="perimeter-r",
                        g_batch=_perimeter_g)


def space_drop_z() -> GMetricSpace:
    """Deliberately broken: ignores its third argument, so two equal
    leading points always give 0 and the positivity axiom fails."""
    return GMetricSpace(carrier=RealCarrier(dim=1), g=_drop_z_g,
                        symmetric_claimed=False, name="drop-z", g_batch=_drop_z_g)


def space_finite_uniform(m: int) -> GMetricSpace:
    return replace(build_gmetric(FiniteMetric.uniform(m), "max"), name=f"finite-uniform-{m}")


def get_space(name: str) -> GMetricSpace:
    if name == "absmax":
        return space_absmax()
    if name == "perimeter-r":
        return space_perimeter()
    if name == "drop-z":
        return space_drop_z()
    if name.startswith("finite-uniform-"):
        try:
            m = int(name.rsplit("-", 1)[1])
        except ValueError:
            raise ConfigError(f"bad finite-uniform size in {name!r}")
        if not 1 <= m <= FINITE_UNIFORM_MAX:
            raise ConfigError(f"malformed space {name!r}: finite-uniform size must be "
                              f"in 1..{FINITE_UNIFORM_MAX}")
        return space_finite_uniform(m)
    raise ConfigError(f"unknown space {name!r}")


def standard_sample(space: GMetricSpace):
    """Default point sample used for sampled axiom checks."""
    if isinstance(space.carrier, FiniteCarrier):
        return list(range(space.carrier.size))
    lo, hi = space.carrier.span
    return [p for p in (0.0, 0.5, 1.0, 2.0, 3.7, 10.0, 100.0) if lo <= p <= hi]


def _parse_param(name: str, prefix: str, kind=parse_rational):
    """The parameter encoded after ``prefix`` in ``name``, converted by ``kind``."""
    raw = name[len(prefix):]
    try:
        return kind(raw)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"malformed parameter {raw!r} in {name!r}") from None


def get_map(name: str, space: GMetricSpace) -> SelfMap:
    """Resolve a catalog map name against a space's carrier."""
    carrier = space.carrier
    finite = isinstance(carrier, FiniteCarrier)
    if name == "identity":
        return SelfMap(domain=carrier, apply=_identity, name="identity", apply_batch=_identity)
    if name.startswith("constant-"):
        if finite:
            c = _parse_param(name, "constant-", int)
            if not 0 <= c < carrier.size:
                raise ConfigError(f"constant {c} outside carrier")
        else:
            c = _parse_param(name, "constant-", float)
        return SelfMap(domain=carrier, apply=lambda p: c, name=name,
                       apply_batch=lambda a: np.full_like(a, c))
    if finite:
        raise ConfigError(f"map {name!r} needs a real carrier")
    if carrier.dim != 1:
        raise ConfigError(f"map {name!r} needs a one-dimensional carrier")
    if name == "moebius":
        return SelfMap(domain=carrier, apply=_moebius, name="moebius",
                       apply_batch=_moebius_batch)
    if name == "step":
        return SelfMap(domain=carrier, apply=lambda x: 0.0 if x <= 1.0 else 1.0, name="step",
                       apply_batch=lambda a: np.where(a <= 1.0, 0.0, 1.0))
    if name.startswith("scale-"):
        c = _parse_param(name, "scale-", float)
        if carrier.span[0] >= 0 and c < 0:
            raise ConfigError(f"scale factor {c} leaves the carrier")

        def scale(x):  # elementwise on arrays as written
            return c * x
        return SelfMap(domain=carrier, apply=scale, name=name, apply_batch=scale)
    raise ConfigError(f"unknown map {name!r}")


def _identity(p):  # elementwise on arrays as written
    return p


def _moebius(x):
    """x / (x + 1.0), and nan where x + 1.0 is zero, as :func:`_moebius_batch` gives."""
    d = x + 1.0
    return x / d if d != 0 else math.nan


def _moebius_batch(x):
    """x / (x + 1.0), and nan where the scalar form divides by zero."""
    d = x + 1.0
    return np.divide(x, d, out=np.full_like(x, np.nan), where=d != 0)


def _ratio1(t1, t2, t3):
    return t1 / (t1 + 1)


def _half_max(t1, t2, t3):
    return max(t1, t2, t3) / 2


def _first(t1, t2, t3):  # elementwise on arrays as written
    return t1


def _half_max_batch(t1, t2, t3):
    return np.maximum(np.maximum(t1, t2), t3) / 2


def get_gauge(name: str) -> GaugeFunction:
    from .conditions import GaugeFunction
    if name == "ratio1":
        return GaugeFunction(evaluate=_ratio1, name="ratio1",
                             evaluate_batch=lambda t1, t2, t3: _moebius_batch(t1))
    if name == "half":
        return GaugeFunction(evaluate=_half_max, name="half", evaluate_batch=_half_max_batch)
    if name == "identity-diag":
        return GaugeFunction(evaluate=_first, name="identity-diag", evaluate_batch=_first)
    if name.startswith("linear-"):
        c = _parse_param(name, "linear-")
        if not 0 <= c:
            raise ConfigError("linear gauge factor must be nonnegative")
        # Fraction * float is float(Fraction) * float, which must not overflow
        c_float = _parse_param(name, "linear-", lambda raw: float(parse_rational(raw)))
        return GaugeFunction(evaluate=lambda t1, t2, t3: c * t1, name=name,
                             evaluate_batch=lambda t1, t2, t3: c_float * t1)
    raise ConfigError(f"unknown gauge {name!r}")


def get_aux(name: str) -> AuxWeight:
    from .conditions import AuxWeight
    if name == "zero":
        return AuxWeight.zero()
    if name.startswith("constant-"):
        return AuxWeight.constant(_parse_param(name, "constant-"))
    if name.startswith("reciprocal-cap-"):
        return AuxWeight.reciprocal_cap(_parse_param(name, "reciprocal-cap-"))
    raise ConfigError(f"unknown weight function {name!r}")

