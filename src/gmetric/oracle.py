"""Exact exhaustive verification on small finite spaces.

Enumerates all self-maps of a small exact carrier and brute-force checks
each fixed-point theorem's hypothesis-implies-conclusion statement with
exact arithmetic end to end.  Every theorem's hypothesis is decided by one
search that assigns each map along orbit paths and cuts a partial map at
its first failing triple.  No floating point enters this module; every
comparison is exact.  A space from :func:`spaces.build_gmetric` has a G that
carries the metric table times the lcm of its denominators, on which
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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, DomainError, ParameterError
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
from .spaces import (FAILS, AxiomReport, GMetricSpace, SelfMap, check_axioms,
                     parse_rational)

DEFAULT_MAP_CAP = 5

THEOREM_IDS = ("THM-2.2", "THM-2.5", "THM-2.10", "THM-2.12")


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
