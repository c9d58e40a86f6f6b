"""Ternary-distance (G-metric) spaces.

A G-metric assigns a nonnegative "perimeter-like" distance G(x, y, z) to
every triple of points.  This module holds the carrier descriptors, the
self-map and space records, finite rational metrics (read from a table
file or drawn at random) and the max and perimeter G built on them as
scaled integers, the verdict records, sample-based and exhaustive axiom
checking, the derived ordinary metric d(x, y) = G(x, y, y) + G(x, x, y),
and convergence diagnostics for point sequences.

Two arithmetic regimes are supported: plain floats (with scale-aware
tolerances) and exact rationals on finite carriers (strict comparisons,
no tolerance).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, combinations_with_replacement, islice, permutations
from operator import add, ne
from typing import Callable, Iterator, Optional, Union

from ._lazy import np
from .errors import ConfigError, DomainError, ParameterError

Point = Union[float, int, tuple]

DEFAULT_TOL = 1e-12
_FLOAT_MAX = sys.float_info.max

FLOAT = "float"
EXACT = "exact"

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

HOLDS_STRICT = "HOLDS_STRICT"
HOLDS_WEAK = "HOLDS_WEAK"
FAILS = "FAILS"
VACUOUS = "VACUOUS"

ROW_STATUSES = (HOLDS_STRICT, HOLDS_WEAK, VACUOUS, FAILS)

AXIOM_KEYS = ("G1", "G2", "G3", "G4", "G5", "symmetry")
AXIOM_POINTS_MAX = 100  # n points tabulate n^3 G values and read n^4 G5 sums


@dataclass(frozen=True)
class RealCarrier:
    """Real points: scalars for dim 1, float tuples for dim >= 2.

    Optional box bounds restrict the carrier (e.g. the nonnegative
    half-line); points outside raise DomainError at normalization.
    """

    dim: int = 1
    lo: Optional[float] = None
    hi: Optional[float] = None

    @property
    def span(self) -> tuple:
        """(lo, hi) clipped to the finite floats, the float extremes where a
        bound is absent, so ``lo <= v <= hi`` also rejects nan and inf."""
        lo = -_FLOAT_MAX if self.lo is None else max(self.lo, -_FLOAT_MAX)
        hi = _FLOAT_MAX if self.hi is None else min(self.hi, _FLOAT_MAX)
        return lo, hi


@dataclass(frozen=True)
class FiniteCarrier:
    """Finite carrier: points are indices 0..size-1."""

    size: int


Carrier = Union[RealCarrier, FiniteCarrier]


def normalize_point(carrier: Carrier, p) -> Point:
    """Coerce ``p`` into the carrier's canonical point form or raise DomainError."""
    if isinstance(carrier, FiniteCarrier):
        if isinstance(p, bool) or not isinstance(p, int):
            raise DomainError(f"finite carrier expects an integer index, got {p!r}")
        if not 0 <= p < carrier.size:
            raise DomainError(f"index {p} outside carrier of size {carrier.size}")
        return p
    if carrier.dim == 1:
        if isinstance(p, (tuple, list)):
            if len(p) != 1:
                raise DomainError(f"expected a scalar or 1-tuple, got {p!r}")
            p = p[0]
        if isinstance(p, bool) or not isinstance(p, (int, float, Fraction)):
            raise DomainError(f"expected a real scalar, got {p!r}")
        return _coord(carrier, p)
    if not isinstance(p, (tuple, list)) or len(p) != carrier.dim:
        raise DomainError(f"expected a {carrier.dim}-tuple, got {p!r}")
    coords = []
    for c in p:
        if isinstance(c, bool) or not isinstance(c, (int, float, Fraction)):
            raise DomainError(f"non-numeric coordinate {c!r}")
        coords.append(_coord(carrier, c))
    return tuple(coords)


@dataclass(frozen=True)
class SelfMap:
    """A self-map of a carrier.  ``apply`` must be total and deterministic.

    ``apply_batch``, when given, maps a float array of scalar points
    elementwise to the floats ``apply`` gives one by one; where ``apply``
    would raise, it yields a non-finite value instead.
    """

    domain: Carrier
    apply: Callable[[Point], Point]
    name: str = ""
    apply_batch: Optional[Callable] = None

    def step(self, p: Point) -> Point:
        """Apply the map to an already-normalized point, validating the image."""
        return normalize_point(self.domain, self.apply(p))


def _coord(carrier: RealCarrier, c) -> float:
    """The real number ``c`` as a float coordinate of the carrier, or DomainError."""
    try:
        v = float(c)
    except OverflowError:  # an int or Fraction past the float range
        raise DomainError("malformed coordinate: too large for a float") from None
    if not math.isfinite(v):
        raise DomainError(f"non-finite coordinate {v!r}")
    if carrier.lo is not None and v < carrier.lo:
        raise DomainError(f"coordinate {v} below carrier bound {carrier.lo}")
    if carrier.hi is not None and v > carrier.hi:
        raise DomainError(f"coordinate {v} above carrier bound {carrier.hi}")
    return v


def coord_distance(p: Point, q: Point) -> float:
    """Chebyshev distance between two normalized real/finite points."""
    if isinstance(p, tuple):
        return max(abs(a - b) for a, b in zip(p, q))
    return abs(p - q)


def scaled_tol(base: float, *values) -> float:
    """Scale-aware tolerance: base * (1 + max |value|)."""
    m = 0.0
    for v in values:
        a = abs(float(v))
        if a > m:
            m = a
    return base * (1.0 + m)


@dataclass(frozen=True)
class GMetricSpace:
    """A carrier together with a ternary distance function.

    ``arithmetic`` is "float" or "exact"; exact spaces must have a finite
    carrier and a distance returning Fractions (or ints).  The symmetry
    flag is a claim, verified by :func:`check_symmetry`, not assumed.
    ``g_batch``, when given, evaluates ``g`` elementwise on three float
    arrays of points, giving bit for bit the floats ``g`` gives one by one.
    """

    carrier: Carrier
    g: Callable
    arithmetic: str = FLOAT
    symmetric_claimed: bool = True
    name: str = ""
    g_batch: Optional[Callable] = None

    def __post_init__(self):
        if self.arithmetic not in (FLOAT, EXACT):
            raise ParameterError(f"unknown arithmetic mode {self.arithmetic!r}")
        if self.arithmetic == EXACT and not isinstance(self.carrier, FiniteCarrier):
            raise ParameterError("exact arithmetic requires a finite carrier")

    @property
    def exact(self) -> bool:
        return self.arithmetic == EXACT


class ScaledG:
    """An exact G that also reads as scaled integers: for every triple
    ``fraction(x, y, z) == Fraction(ints(x, y, z), scale)``.  Calling it
    calls ``fraction``.  (A plain class: a dataclass costs 0.5 ms of import.)"""

    __slots__ = ("fraction", "ints", "scale")

    def __init__(self, fraction: Callable, ints: Callable, scale: int):
        self.fraction, self.ints, self.scale = fraction, ints, scale

    def __call__(self, x, y, z):
        return self.fraction(x, y, z)


def scaled_form(space: GMetricSpace) -> Optional[ScaledG]:
    """The G of an exact space when it is a :class:`ScaledG`, else None; a G
    put in by ``dataclasses.replace(space, g=...)`` is read as it is."""
    return space.g if space.exact and isinstance(space.g, ScaledG) else None


# Most digits a rational string may write in its numerator or denominator,
# and largest magnitude of its decimal exponent. A parsed value then has at
# most 2 * RATIONAL_MAX_DIGITS + 1 digits above and below the line, well under
# the 4300 that Python prints, and the parse stays fast: Fraction("1e10000000")
# alone takes seconds.
RATIONAL_MAX_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, or a ValueError before ``Fraction`` runs when the
    string passes :data:`RATIONAL_MAX_DIGITS`."""
    mantissa, _, exponent = text.lower().partition("e")
    if (max(sum(map(str.isdigit, part)) for part in mantissa.split("/")) > RATIONAL_MAX_DIGITS
            or abs(int(exponent or 0)) > RATIONAL_MAX_DIGITS):
        raise ValueError(f"more than {RATIONAL_MAX_DIGITS} digits in a numerator, "
                         f"denominator or exponent")
    return Fraction(text)


@dataclass(frozen=True)
class FiniteMetric:
    """A finite metric given by an m x m table of exact rationals; ``ints``
    is the table times ``scale``, the lcm of its denominators."""

    d: tuple
    scale: int = field(init=False, repr=False, compare=False)
    ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.d)
        if m == 0:
            raise ParameterError("metric table must be nonempty")
        for row in self.d:
            if len(row) != m:
                raise ParameterError("metric table must be square")
        for i in range(m):
            if self.d[i][i] != 0:
                raise ParameterError(f"diagonal entry d[{i}][{i}] must be 0")
            for j in range(m):
                v = self.d[i][j]
                if not isinstance(v, Fraction):
                    raise ParameterError("metric entries must be Fractions")
                if i != j and v <= 0:
                    raise ParameterError(f"off-diagonal entry d[{i}][{j}] must be positive")
                if v != self.d[j][i]:
                    raise ParameterError(f"metric table not symmetric at ({i},{j})")
        scale = math.lcm(*(v.denominator for row in self.d for v in row))
        ints = [v.numerator * (scale // v.denominator) for row in self.d for v in row]
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", tuple(tuple(ints[i * m:(i + 1) * m]) for i in range(m)))
        top = max(ints)
        # No triple of distinct points when m < 3. Otherwise, when no off-diagonal
        # entry exceeds twice the smallest, d[i][k] + d[k][j] >= 2 min >= max >=
        # d[i][j] for distinct i, j, k; k = i or j is trivial. This covers tables
        # with entries in [1, 2] without numpy.
        if m < 3 or top <= 2 * min(filter(None, ints)):
            return
        # int64 when d[i][j] + d[j][k], the largest compared value, surely
        # fits, exact Python ints otherwise
        d = np.array(ints, dtype=np.int64 if 2 * top < 2 ** 63 else object).reshape(m, m)
        for i in range(m):  # one row of (j, k) at a time; the first failure in C order
            bad = np.flatnonzero(d[i, :, None] > d[i, None, :] + d.T)
            if bad.size:
                j, k = divmod(int(bad[0]), m)
                raise ParameterError(f"triangle inequality fails at ({i},{j}) via {k}")

    @property
    def size(self) -> int:
        return len(self.d)

    @classmethod
    def from_rows(cls, rows) -> "FiniteMetric":
        table = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(table)

    @classmethod
    def uniform(cls, m: int) -> "FiniteMetric":
        if m < 1:
            raise ParameterError("size must be at least 1")
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(zero if i == j else one for j in range(m))
                         for i in range(m)))


def random_metric(rng, min_size: int = 2, max_size: int = 6,
                  max_denominator: int = 12) -> FiniteMetric:
    """Seeded random rational metric with entries in [1, 2].

    Keeping every off-diagonal distance in [1, 2] makes the triangle
    inequality automatic, so any symmetric positive table qualifies.
    """
    m = int(rng.integers(min_size, max_size + 1))
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            den = int(rng.integers(1, max_denominator + 1))
            num = int(rng.integers(den, 2 * den + 1))
            rows[i][j] = rows[j][i] = Fraction(num, den)
    return FiniteMetric.from_rows(rows)


def _words(fh, size: int = 1 << 16) -> Iterator[str]:
    """``fh.read().split()``, read ``size`` characters at a time; a word
    that spans chunks is joined once."""
    parts = []  # the pieces of a word that may go on in the next chunk
    for chunk in iter(partial(fh.read, size), ""):
        words = chunk.split()
        if parts and not chunk[0].isspace():
            parts.append(words.pop(0))
        if parts and (words or chunk[-1].isspace()):
            yield "".join(parts)
            parts = []
        if words and not chunk[-1].isspace():
            parts.append(words.pop())
        yield from words
    if parts:
        yield "".join(parts)


def load_metric_table(path) -> FiniteMetric:
    """Read a metric from a plain-text table: first line m, then m rows of
    whitespace-separated rationals ("p/q" or integers).  The file is read in
    chunks and only its first m * m + 1 tokens are kept; the rest are counted."""
    try:  # a ValueError also when the file is not UTF-8
        with open(path) as fh:
            words = _words(fh)
            tokens = list(islice(words, 1))
            try:  # an m that is no int is refused below, once the file is read
                keep = min(int(tokens[0]) ** 2, sys.maxsize) if tokens else 0
            except ValueError:
                keep = 0
            tokens += islice(words, keep)
            found = len(tokens) - 1 + sum(1 for _ in words)
        m = int(tokens[0]) if tokens else None
        if m is not None and found == m * m:  # counted before any is parsed
            vals = [parse_rational(v) for v in tokens[1:]]
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"malformed metric table {path}: {e}") from None
    if m is None:
        raise ParameterError(f"empty metric table file {path}")
    if found != m * m:
        raise ParameterError(f"expected {m * m} entries, found {found}")
    rows = [vals[i * m:(i + 1) * m] for i in range(m)]
    return FiniteMetric.from_rows(rows)


def build_gmetric(metric: FiniteMetric, construction: str) -> GMetricSpace:
    """Exact ternary distance from a finite metric.

    ``max``: G(x,y,z) = max of the three pairwise distances;
    ``perimeter``: their sum.  Both are symmetric by construction.  G is a
    :class:`ScaledG`: the same rule on ``metric.ints`` gives it as integers.
    """
    if construction == "max":
        def on(d):
            return lambda i, j, k: max(d[i][j], d[j][k], d[k][i])
    elif construction == "perimeter":
        def on(d):
            return lambda i, j, k: d[i][j] + d[j][k] + d[k][i]
    else:
        raise ParameterError(f"unknown construction {construction!r}")
    return GMetricSpace(carrier=FiniteCarrier(metric.size),
                        g=ScaledG(on(metric.d), on(metric.ints), metric.scale),
                        arithmetic=EXACT, symmetric_claimed=True,
                        name=f"{construction}-m{metric.size}")


def _validate_value(space: GMetricSpace, v):
    if space.exact:
        if isinstance(v, int):
            v = Fraction(v)
        if not isinstance(v, Fraction):
            raise DomainError(f"exact space produced non-rational value {v!r}")
        return v
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"distance evaluated to non-finite value {v!r}")
    return v


def raw_g(space: GMetricSpace, x: Point, y: Point, z: Point):
    """Distance on already-normalized points (validates the value only)."""
    return _validate_value(space, space.g(x, y, z))


def eval_g(space: GMetricSpace, x, y, z):
    """Evaluate G(x, y, z) after normalizing the three points."""
    c = space.carrier
    return raw_g(space, normalize_point(c, x), normalize_point(c, y), normalize_point(c, z))


def derived_metric(space: GMetricSpace, x, y):
    """The ordinary metric induced by G: d(x, y) = G(x, y, y) + G(x, x, y)."""
    c = space.carrier
    xn, yn = normalize_point(c, x), normalize_point(c, y)
    return raw_g(space, xn, yn, yn) + raw_g(space, xn, xn, yn)


class Regime:
    """The arithmetic-regime policy: every exact-or-float comparison lives here.

    Built from ``space.exact`` and the tolerance of one call.  The exact
    regime compares literally and never touches floats; the float regime
    adds slack built from ``tol`` by one of two formulas, kept apart because
    merging them would change verdicts:

      scaled_tol = tol * (1 + max |v|)   distinct, exceeds (axioms, real points)
      tau = tol * (1 + |lhs| + |rhs|)    status, strictly_below, above
                                         (conditions, uniqueness, weight bound)

    ``tol`` must be finite and nonnegative; 0 compares floats literally.
    Where tau is not finite (a side is not finite, or their sum overflows),
    every comparison fails closed: :meth:`status` and :meth:`status_rows`
    read FAILS (or VACUOUS), :meth:`strictly_below` is false and
    :meth:`above` is true.  An infinite side often comes from an overflow
    inside the formula rather than from a side that large, so no literal
    comparison of such sides is trusted.
    The ``*_rows`` methods apply the same formulas elementwise to numpy
    arrays; they serve the float regime only, as row arrays exist only for
    real carriers and exact spaces are finite.
    """

    __slots__ = ("exact", "tol", "zero", "one")

    def __init__(self, exact: bool, tol: float = DEFAULT_TOL):
        if not (math.isfinite(tol) and tol >= 0):
            raise ParameterError(f"tol must be finite and nonnegative, got {tol!r}")
        self.exact = exact
        self.tol = tol
        self.zero = Fraction(0) if self.exact else 0.0
        self.one = Fraction(1) if self.exact else 1.0

    def distinct(self, p, q) -> bool:
        """p != q: for values, or for real points (tuples compare
        coordinate-wise); :func:`points_distinct` is the rule for points."""
        if self.exact:
            return p != q
        if isinstance(p, tuple):
            return coord_distance(p, q) > scaled_tol(self.tol, *p, *q)
        return abs(p - q) > scaled_tol(self.tol, p, q)

    def distinct_rows(self, p, q):
        """:meth:`distinct` of the rows of two point arrays, shape (n,) or (n, dim)."""
        gap, scale = np.abs(p - q), np.maximum(np.abs(p), np.abs(q))
        if p.ndim == 2:  # tuple points: Chebyshev gap, largest coordinate
            gap, scale = gap.max(axis=1), scale.max(axis=1)
        return gap > self.tol * (1.0 + scale)

    def exceeds(self, lhs, rhs) -> bool:
        """lhs > rhs, beyond the scaled_tol slack."""
        if self.exact:
            return lhs > rhs
        return lhs > rhs + scaled_tol(self.tol, lhs, rhs)

    def may_exceed(self, lhs, low) -> bool:
        """Implied by ``exceeds(lhs, rhs)`` for every rhs >= low: a row screen."""
        return lhs > low if self.exact else lhs > low + self.tol * (1.0 + abs(lhs))

    def vacuous(self, lhs) -> bool:
        """A condition's left side is (numerically) zero."""
        if self.exact:
            return lhs == 0
        return lhs <= self.tol

    def _tau(self, lhs, rhs) -> float:
        """The tau slack, or nan where it is not finite: every comparison
        with nan is false, and each caller is written so that false fails."""
        tau = self.tol * (1.0 + abs(float(lhs)) + abs(float(rhs)))
        return tau if tau < math.inf else math.nan

    def status(self, lhs, rhs, strict: bool) -> str:
        """Verdict status of ``lhs < rhs`` (strict) or ``lhs <= rhs``."""
        if self.vacuous(lhs):
            return VACUOUS
        if self.strictly_below(lhs, rhs):
            return HOLDS_STRICT
        if strict:
            return FAILS
        if self.exact:
            return HOLDS_WEAK if lhs == rhs else FAILS
        return HOLDS_WEAK if abs(lhs - rhs) <= self._tau(lhs, rhs) else FAILS

    def status_rows(self, lhs, rhs, strict: bool):
        """:meth:`status` of float arrays (float regime only), as indices
        into ``ROW_STATUSES``."""
        tau = self.tol * (1.0 + np.abs(lhs) + np.abs(rhs))
        tau[~(tau < np.inf)] = np.nan  # as in _tau
        code = np.where(lhs < rhs - tau, 0, 3)  # HOLDS_STRICT, else FAILS
        if not strict:
            code[(code == 3) & (np.abs(lhs - rhs) <= tau)] = 1  # HOLDS_WEAK
        code[lhs <= self.tol] = 2  # VACUOUS
        return code

    def strictly_below(self, lhs, rhs) -> bool:
        """lhs < rhs, by more than the tau slack."""
        if self.exact:
            return lhs < rhs
        return lhs < rhs - self._tau(lhs, rhs)

    def above(self, lhs, rhs) -> bool:
        """lhs > rhs, by more than the tau slack."""
        if self.exact:
            return lhs > rhs
        return not lhs <= rhs + self._tau(lhs, rhs)


def points_distinct(carrier: Carrier, tol: float = DEFAULT_TOL) -> Callable:
    """The point rule ``distinct(p, q)`` on normalized points of ``carrier``, in
    either regime: two indices of a finite carrier are distinct exactly when
    unequal, and real points past the float slack of :meth:`Regime.distinct`."""
    distinct = Regime(False, tol).distinct  # checks tol on either carrier
    return ne if isinstance(carrier, FiniteCarrier) else distinct


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single check: PASS, FAIL (with witness), or SKIPPED."""

    status: str
    witness: Optional[tuple] = None
    values: Optional[tuple] = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a contractive condition on one triple."""

    status: str
    lhs: object
    rhs: object
    excluded_terms: tuple = ()
    triple: tuple = ()

    @property
    def holds(self) -> bool:
        return self.status in (HOLDS_STRICT, HOLDS_WEAK, VACUOUS)


@dataclass
class AxiomReport:
    verdicts: dict
    sample_size: int
    quadruple_count: int
    mode: str

    def all_pass(self) -> bool:
        return all(v.status != FAIL for v in self.verdicts.values())

    def failures(self) -> dict:
        return {k: v for k, v in self.verdicts.items() if v.status == FAIL}


def check_axioms(space: GMetricSpace, sample=None, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check the five G-metric axioms (and the symmetry property) on a point set.

    With no sample the check is exhaustive over a finite carrier; otherwise
    all triples/quadruples come from the nonempty sample.  Points are told
    apart by :func:`points_distinct`.  In the float regime, strict
    inequalities between values are tested against a scale-aware tolerance
    so rounding noise cannot fabricate a failure; exact spaces use true
    comparisons.

    Axioms, for all points drawn from the set:
      G1: G(x, x, x) = 0
      G2: G(x, x, y) > 0 when x != y
      G3: G(x, x, y) <= G(x, y, z) when z != y
      G4: G is invariant under all permutations of its arguments
      G5: G(x, y, z) <= G(x, a, a) + G(a, y, z) for every a
    plus the symmetry property G(x, y, y) = G(x, x, y) (skipped when the
    space does not claim it).

    G is tabulated once, exact values as integers: read from a
    :class:`ScaledG`, else scaled by the lcm of their denominators.  G3 and
    G5 walk only a row whose min fails :meth:`Regime.may_exceed`.  Past
    ``AXIOM_POINTS_MAX`` points: ParameterError.
    """
    if sample is None:
        if not isinstance(space.carrier, FiniteCarrier):
            raise ParameterError("exhaustive axiom checking requires a finite carrier")
        pts = list(range(space.carrier.size))
    elif not sample:
        raise ParameterError("a sampled axiom check requires a nonempty sample")
    else:  # drop exact duplicates, keep order
        pts = list(dict.fromkeys(normalize_point(space.carrier, p) for p in sample))
    n, nn = len(pts), len(pts) ** 2
    if n > AXIOM_POINTS_MAX:
        raise ParameterError(f"malformed axiom check: {n} points, limit {AXIOM_POINTS_MAX}")
    reg = Regime(space.exact, tol)
    distinct, exceeds, may_exceed = reg.distinct, reg.exceeds, reg.may_exceed
    distinct_points = points_distinct(space.carrier, tol)
    form = scaled_form(space)
    g = form.ints if form else partial(raw_g, space)
    t = [g(x, y, z) for x in pts for y in pts for z in pts]  # t[i*nn + j*n + k]
    if form:
        scale = form.scale
    elif space.exact:  # exact comparisons hold under a positive common scale
        scale = math.lcm(*{v.denominator for v in t})
        factor = cache(scale.__floordiv__)  # one division per distinct denominator
        for i, v in enumerate(t):  # in place, so no Fraction table is held beside it
            t[i] = v.numerator * factor(v.denominator)
    unscale = partial(Fraction, denominator=scale) if space.exact else float

    def g1():  # zero on the diagonal
        for x, val in zip(pts, t[::nn + n + 1]):
            if distinct(val, 0):
                yield (x, x, x), (val,)

    def g2():  # strictly positive off the diagonal
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if distinct_points(x, y):
                    val = t[i * (nn + n) + j]
                    if not exceeds(val, 0):
                        yield (x, x, y), (val,)

    def g3():  # the two-point value is a lower bound over third points
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                lhs, row = t[i * (nn + n) + j], t[i * nn + j * n:i * nn + j * n + n]
                if may_exceed(lhs, min(row)):
                    for z, rhs in zip(pts, row):
                        if distinct_points(z, y) and exceeds(lhs, rhs):
                            yield (x, y, z), (lhs, rhs)

    def g4():  # permutation invariance; max |v| over vals is |max| or |min|
        # One triple per permutation class: the first failing triple in C
        # order is the class member with its positions in pts sorted.
        for ijk in combinations_with_replacement(range(n), 3):
            vals = [t[a * nn + b * n + c] for a, b, c in permutations(ijk)]
            if distinct(max(vals), min(vals)):
                yield tuple(pts[a] for a in ijk), tuple(vals)

    def g5():  # rectangle inequality through any fourth point
        cols = [t[jk::nn] for jk in range(nn)]  # G(a, y, z) over a
        for i, x in enumerate(pts):
            diag = t[i * nn:(i + 1) * nn:n + 1]  # G(x, a, a) over a
            for jk, col in enumerate(cols):
                lhs = t[i * nn + jk]
                if may_exceed(lhs, min(map(add, diag, col))):
                    for a, ga, gb in zip(pts, diag, col):
                        if exceeds(lhs, ga + gb):
                            yield (x, pts[jk // n], pts[jk % n], a), (lhs, ga + gb)

    checks = {"G1": g1, "G2": g2, "G3": g3, "G4": g4, "G5": g5}
    # symmetry property (a claim about the space, not one of G1-G5)
    if space.symmetric_claimed:
        checks["symmetry"] = partial(_symmetry_failures, reg, pts, (
            (t[i * nn:(i + 1) * nn:n + 1], t[i * (nn + n):i * (nn + n) + n]) for i in range(n)))
    verdicts = {key: _first_failure((w, tuple(map(unscale, v))) for w, v in failures())
                for key, failures in checks.items()}
    verdicts.setdefault("symmetry", Verdict(SKIPPED, note="space does not claim symmetry"))
    return AxiomReport(verdicts=verdicts, sample_size=n ** 3, quadruple_count=n ** 4,
                       mode="exhaustive" if sample is None else "sampled")


def _first_failure(failures) -> Verdict:
    """FAIL with the first (witness, values) that ``failures`` yields, else PASS."""
    for witness, values in failures:
        return Verdict(FAIL, witness=witness, values=values)
    return Verdict(PASS)


def _symmetry_failures(reg: Regime, pts, rows):
    """Pairs of ``pts`` where G(x, y, y) != G(x, x, y); ``rows`` gives, for
    each x in turn, the values G(x, y, y) and G(x, x, y) over y."""
    for x, (yy, xy) in zip(pts, rows):
        if yy != xy:  # distinct values are unequal, so an equal row holds
            for y, a, b in zip(pts, yy, xy):
                if reg.distinct(a, b):
                    yield (x, y), (a, b)


def check_symmetry(space: GMetricSpace, sample, tol: float = DEFAULT_TOL) -> Verdict:
    """Verify G(x, y, y) = G(x, x, y) on all sampled pairs, whether or not
    the space claims symmetry."""
    if not sample:
        raise ParameterError("symmetry check requires a nonempty sample")
    pts = [normalize_point(space.carrier, p) for p in sample]
    rows = (([raw_g(space, x, y, y) for y in pts], [raw_g(space, x, x, y) for y in pts])
            for x in pts)
    return _first_failure(_symmetry_failures(Regime(space.exact, tol), pts, rows))


# Indicator keys follow the quantities of the convergence-equivalence
# result: G(x, x_n, x_m), d_G(x_n, x), G(x, x_n, x_n), G(x_n, x, x),
# plus the Cauchy tail gap sup G(x_n, x_m, x_m).
INDICATOR_KEYS = ("G_x_xn_xm", "dG_xn_x", "G_x_xn_xn", "G_xn_x_x", "cauchy_gap")


@dataclass
class ConvergenceDiagnosis:
    candidate_limit: Optional[Point]
    indicators: dict
    thresholds_met: dict
    eps: float
    tail_start: int
    tail_traces: dict = field(default_factory=dict)

    def all_met(self) -> bool:
        return all(self.thresholds_met.values())


_TAIL_POINTS = 256


def _strided(indices, cap):
    if len(indices) <= cap:
        return list(indices)
    step = max(1, len(indices) // cap)
    picked = list(indices[::step])
    if picked[-1] != indices[-1]:
        picked.append(indices[-1])
    return picked


def diagnose_sequence(space: GMetricSpace, prefix, candidate=None,
                      eps: float = 1e-6) -> ConvergenceDiagnosis:
    """Evaluate the convergence indicators of a sequence prefix.

    Indicators are computed on the prefix tail: its last half, and at
    least its last two points.  The two-index quantities (pair sup toward
    the candidate, and the Cauchy gap) are taken as sups over at most 256
    strided tail points that always include the tail endpoints; the
    single-index quantities are additionally recorded along those points
    so implications can be asserted index by index.  Without a candidate
    all thresholds are reported unmet.
    """
    if not eps > 0:  # nan too
        raise ParameterError("eps must be positive")
    pts = [normalize_point(space.carrier, p) for p in prefix]
    if len(pts) < 2:
        raise ParameterError("prefix must contain at least 2 points")
    cand = None if candidate is None else normalize_point(space.carrier, candidate)

    n = len(pts)
    tail_start = min(n - 2, n // 2)
    idxs = _strided(range(tail_start, n), _TAIL_POINTS)

    indicators = {k: None for k in INDICATOR_KEYS}
    traces = {"dG_xn_x": [], "G_x_xn_xn": [], "G_xn_x_x": []}

    tail = [pts[i] for i in idxs]
    zero = Regime(space.exact).zero
    # Cauchy gap: sup G(x_i, x_j, x_j) over tail pairs i < j, and zero for none
    cauchy = (raw_g(space, p, q, q) for p, q in combinations(tail, 2))
    indicators["cauchy_gap"] = max(chain([zero], cauchy))

    if cand is not None:
        pairs = (raw_g(space, cand, p, q) for p, q in combinations_with_replacement(tail, 2))
        indicators["G_x_xn_xm"] = max(chain([zero], pairs))
        for p in tail:
            traces["G_x_xn_xn"].append(raw_g(space, cand, p, p))
            traces["G_xn_x_x"].append(raw_g(space, p, cand, cand))
            traces["dG_xn_x"].append(raw_g(space, p, cand, cand) + raw_g(space, p, p, cand))
        indicators["G_x_xn_xn"] = traces["G_x_xn_xn"][-1]
        indicators["G_xn_x_x"] = traces["G_xn_x_x"][-1]
        indicators["dG_xn_x"] = traces["dG_xn_x"][-1]

    if cand is None:
        met = {k: False for k in INDICATOR_KEYS}
    else:
        met = {k: (indicators[k] is not None and indicators[k] <= eps)
               for k in INDICATOR_KEYS}

    return ConvergenceDiagnosis(candidate_limit=cand, indicators=indicators,
                                thresholds_met=met, eps=eps, tail_start=tail_start,
                                tail_traces=traces)
