"""Exact exhaustive verification on small finite spaces.

Builds ternary distances from finite rational metrics (max-of-pairs and
perimeter constructions), enumerates all self-maps of a small carrier,
and brute-force checks each fixed-point theorem's hypothesis-implies-
conclusion statement with exact arithmetic end to end.  Every theorem's
hypothesis is decided by one search that assigns each map along orbit paths
and cuts a partial map at its first failing triple.  No floating point
enters this module; every comparison is exact.  A built space's G carries
the metric table times the lcm of its denominators, on which
``conditions._decider`` decides the extension conditions of THM-2.12 as
cross-multiplied integers; it decides the majorant conditions on Fractions.

Theorem identifiers accepted by :func:`exhaustive_theorem_check`:

  THM-2.2   strict q-majorant condition (q < 1) + injectivity; every
            orbit must converge to a fixed point, unique when the weight
            satisfies the reciprocal bound.
  THM-2.5   the same majorant condition with q = 1 + injectivity; every
            orbit cluster point must be a fixed point the orbit settles on.
  THM-2.10  gauge-majorant condition + injectivity; same conclusion as
            THM-2.2.
  THM-2.12  the extension conditions (i)/(ii)/(iii) quantified over
            orbit-set triples; every orbit must reach a fixed point.

On a finite carrier every map is orbitally continuous and every orbit is
eventually periodic, so those hypotheses are recorded as automatically
satisfied and convergence reduces to "the reached cycle has length 1".
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice, product
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from ._lazy import np
from .errors import CapExceededError, ConfigError, DomainError, ParameterError
from .conditions import (
    MAJORANT_IDS,
    AuxWeight,
    ConditionSpec,
    GaugeFunction,
    _EvalContext,
    _aux_bound,
    _decider,
    _extension_specs,
)
from .dynamics import SelfMap
from .spaces import EXACT, FAILS, AxiomReport, FiniteCarrier, GMetricSpace, ScaledG, check_axioms

DEFAULT_MAP_CAP = 5

THEOREM_IDS = ("THM-2.2", "THM-2.5", "THM-2.10", "THM-2.12")

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


def enumerate_self_maps(m: int, cap: int = DEFAULT_MAP_CAP) -> Iterator[tuple]:
    """All m^m self-map tables of {0..m-1} in lexicographic order."""
    if m < 1:
        raise ParameterError("size must be at least 1")
    if m > cap:
        raise CapExceededError(
            f"carrier size {m} exceeds the enumeration cap {cap} ({m}^{m} maps)")
    return product(range(m), repeat=m)


def table_self_map(space: GMetricSpace, table: Sequence[int]) -> SelfMap:
    tbl = tuple(table)
    return SelfMap(domain=space.carrier, apply=lambda i: tbl[i],
                   name="table" + "".join(str(t) for t in tbl))


def orbit_cycle(table: Sequence[int], start: int):
    """Iterate a table map from ``start`` until a state repeats.

    Returns (steps_to_cycle, cycle) where ``cycle`` is the tuple of states
    on the eventual cycle, beginning at the first repeated state.
    """
    visits = orbit_set(table, start)
    mu = visits.index(table[visits[-1]])
    return mu, visits[mu:]


def orbit_set(table: Sequence[int], start: int) -> tuple:
    """The orbit {start, T start, T^2 start, ...} as a tuple in first-visit order."""
    seen = {}
    x = start
    while x not in seen:
        seen[x] = None
        x = table[x]
    return tuple(seen)


@dataclass
class TheoremCheckReport:
    theorem_id: str
    maps_total: int
    maps_satisfying_hypothesis: int
    conclusion_holds: int
    counterexamples: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    hypothesis_failing: int = 0
    notes: tuple = ("orbital continuity and orbital completeness are automatic on finite carriers",)

    def consistent(self) -> bool:
        return (self.conclusion_holds + len(self.counterexamples)
                == self.maps_satisfying_hypothesis)


def _hypothesis_tables(ctx: _EvalContext, specs, m: int, scope: str) -> Iterator[tuple]:
    """(table, bad) for each table of all m^m whose quantified triples are
    each accepted by one of ``specs``: every carrier triple (``scope``
    "carrier") or every orbit-set triple ("orbit"); ``bad`` is the lowest
    start whose orbit ends in a cycle longer than 1, or None.  A majorant
    condition is quantified over x != y only and its theorems ask for
    injectivity, so then only the m! permutations are met.  Tables are
    yielded as met, which is not ``product`` order, so none is held.

    T is assigned along the path of the lowest unassigned start a.  That
    path, and the orbit set of an earlier point it reaches, lie in orbit(a);
    after each assignment their triples are decided (with "carrier", the
    triples of assigned points that hold the new one), and a partial map is
    cut at its first failing triple.  A verdict reads only the triple and
    its images, so it is memoized by those six points; a memo miss asks
    each spec's :func:`_decider`, on scaled integers or on Fractions.  The
    search keeps its own stack, so Python's recursion limit does not bound m.
    """
    majorant = specs[0].id in MAJORANT_IDS
    table = [None] * m
    memo = {}
    deciders = [_decider(ctx, spec)[0] for spec in specs]

    def holds(t):
        x, y, z = t
        key = (x, y, z, table[x], table[y], table[z])
        found = memo.get(key)
        if found is None:
            found = memo[key] = ((majorant and x == y)
                                 or any(d(*key)[0] != FAILS for d in deciders))
        return found

    # stack[i] is a point whose image is set or tried, and paths[i] the index
    # in stack where its path begins with the bad start of the orbits closed
    # before that path; the top tries its next image (-1: none yet)
    stack, paths = [0], [(0, None)]
    table[0] = -1
    while stack:
        p, (s, bad) = stack[-1], paths[-1]
        table[p] = v = table[p] + 1
        if v == m:  # every image of p tried: back up
            table[stack.pop()] = None
            paths.pop()
            continue
        if majorant and table[v] is not None and v != stack[s]:  # not injective
            continue
        if scope == "orbit":
            path = stack[s:]
            if table[v] is not None and v not in path:  # orbit(a) takes in orbit(v)
                path += orbit_set(table, v)
            triples = product(path, repeat=3)
        else:  # a triple without p held at the node that assigned its last point
            others = stack[:-1]
            triples = chain(product([p], stack, stack), product(others, [p], stack),
                            product(others, others, [p]))
        if not all(map(holds, triples)):
            continue
        if table[v] is None:  # the path goes on through v
            stack.append(v)
        else:  # orbit(a) is closed: on a cycle from v on, or on that of the orbit it joins
            if bad is None and v != p and v in stack[s:]:
                bad = stack[s]
            if None not in table:
                yield tuple(table), bad
                continue
            s = len(stack)
            stack.append(table.index(None))
        paths.append((s, bad))
        table[stack[-1]] = -1


def _as_fraction(v, name: str) -> Fraction:
    if isinstance(v, (Fraction, int, str, float)) and not isinstance(v, bool):
        try:
            return parse_rational(str(v)) if isinstance(v, (str, float)) else Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"malformed {name}: {v!r} is not rational-valued")


def exhaustive_theorem_check(space: GMetricSpace, theorem_id: str,
                             params: Optional[dict] = None,
                             cap: int = DEFAULT_MAP_CAP) -> TheoremCheckReport:
    """Check a theorem over all m^m self-maps of an exact finite space.

    The hypothesis is decided exactly (condition on all admissible
    triples) by one search along orbit paths, so no partial map is extended
    past its first failing triple; the same search sees each passing map's
    orbits close, and so gives the lowest start whose orbit ends in a cycle
    longer than 1.  Where the hypothesis requires injectivity the search
    meets only the m! permutations; the other m^m - m! maps count as
    failing it.  Counterexamples carry the map table, the violated clause,
    and a witness, and always re-verify.

    ``params`` per theorem: THM-2.2 needs ``q`` (rational in (0,1));
    THM-2.10 needs ``gauge`` (a GaugeFunction); THM-2.12 needs at least
    one of ``alpha``/``beta``/``delta``.  THM-2.2/2.5/2.10 accept ``a``
    (an AuxWeight, default zero) and ``scope`` = "carrier" (default) or
    "orbit" for the condition's quantifier range; THM-2.12 takes neither.
    """
    if theorem_id not in THEOREM_IDS:
        raise ParameterError(f"unknown theorem id {theorem_id!r}")
    if not space.exact:
        raise ParameterError("theorem checking requires an exact-rational space")
    if not space.symmetric_claimed:
        raise DomainError("theorem checking requires a symmetric space")
    params = dict(params or {})
    m = space.carrier.size

    aux, scope = params.pop("a", None), params.pop("scope", None)
    if theorem_id == "THM-2.12" and (aux is not None or scope is not None):
        raise ParameterError("THM-2.12 takes no weight a and no scope")
    aux = aux or AuxWeight.zero()
    scope = "carrier" if scope is None else scope
    if scope not in ("carrier", "orbit"):
        raise ParameterError(f"unknown scope {scope!r}")

    report_params = {"scope": scope, "a": aux.label()}
    if theorem_id == "THM-2.2":
        if params.get("q") is None:
            raise ParameterError("THM-2.2 requires q")
        q = _as_fraction(params.pop("q"), "q")
        specs = [ConditionSpec(id="C-Q", q=q, a=aux)]
        report_params["q"] = str(q)
    elif theorem_id == "THM-2.5":
        specs = [ConditionSpec(id="C-UNIT", a=aux)]
    elif theorem_id == "THM-2.10":
        gauge = params.pop("gauge", None)
        if not isinstance(gauge, GaugeFunction):
            raise ParameterError("THM-2.10 requires a GaugeFunction")
        specs = [ConditionSpec(id="C-GAUGE", h=gauge, a=aux)]
        report_params["gauge"] = gauge.name
    else:
        del report_params["scope"]
        ext = {}
        for name in ("alpha", "beta", "delta"):
            v = params.pop(name, None)
            if v is not None:
                ext[name] = _as_fraction(v, name)
                report_params[name] = str(ext[name])
        specs = _extension_specs(**ext)
    if params:
        raise ParameterError(f"unknown theorem parameters {sorted(params)}")

    # The uniqueness clause evaluates the condition at pairs of distinct
    # fixed points, which never share an orbit, so it is only claimed when
    # the condition is quantified over the whole carrier.
    check_uniqueness = theorem_id in ("THM-2.2", "THM-2.10") and scope == "carrier"

    # G does not depend on the map, so one context serves the run
    ctx = _EvalContext(space)
    enumerate_self_maps(m, cap=cap)  # raises past the cap
    passing = _hypothesis_tables(ctx, specs, m, "orbit" if theorem_id == "THM-2.12" else scope)
    if check_uniqueness:
        carrier_triples = [t for t in product(range(m), repeat=3) if t[0] != t[1]]
    clause = "cluster-not-fixed" if theorem_id == "THM-2.5" else "orbit-not-convergent"
    satisfying = 0
    counterexamples = []
    for table, bad in passing:
        satisfying += 1
        if bad is not None:
            counterexamples.append((table, clause,
                                    {"start": bad, "cycle": orbit_cycle(table, bad)[1]}))
        elif check_uniqueness:
            fixed = tuple(i for i in range(m) if table[i] == i)
            if len(fixed) != 1 and _aux_bound(ctx, aux, carrier_triples, table.__getitem__).passed:
                counterexamples.append((table, "fixed-point-not-unique", {"fixed_points": fixed}))
    counterexamples.sort(key=itemgetter(0))  # product order, as enumerate_self_maps gives

    return TheoremCheckReport(
        theorem_id=theorem_id, maps_total=m ** m,
        maps_satisfying_hypothesis=satisfying,
        conclusion_holds=satisfying - len(counterexamples),
        counterexamples=counterexamples, params=report_params,
        hypothesis_failing=m ** m - satisfying)


def exhaustive_axiom_check(space: GMetricSpace) -> AxiomReport:
    """All-triples, all-quadruples axiom check with exact comparisons."""
    if not space.exact:
        raise ParameterError("exhaustive exact checking requires an exact space")
    return check_axioms(space, mode="exhaustive", tol=0.0)
