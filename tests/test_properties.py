"""Property-based tests for the structural invariants."""
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gmetric as gm
from gmetric import catalog, sampling, spaces
from gmetric.spaces import DEFAULT_TOL, Regime, raw_g

finite_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                          allow_infinity=False)


@st.composite
def rational_metrics(draw):
    """Random small metric with entries in [1, 2], triangle-safe."""
    m = draw(st.integers(min_value=2, max_value=4))
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            den = draw(st.integers(min_value=1, max_value=12))
            num = draw(st.integers(min_value=den, max_value=2 * den))
            rows[i][j] = rows[j][i] = Fraction(num, den)
    return gm.FiniteMetric.from_rows(rows)


def _relabeled(metric, sigma):
    """The metric with point i renamed sigma[i]."""
    m = metric.size
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            rows[sigma[i]][sigma[j]] = metric.d[i][j]
    return gm.FiniteMetric.from_rows(rows)


ORACLE_RUNS = [
    ("THM-2.2", {"q": "1/2"}),
    ("THM-2.2", {"q": "9/10", "a": "reciprocal-cap-2"}),
    ("THM-2.5", {"scope": "orbit"}),
    ("THM-2.10", {"gauge": "half"}),
    ("THM-2.12", {"delta": "1/2"}),
    ("THM-2.12", {"alpha": "2", "beta": "2/3"}),
]


class TestOracleRelabeling:
    """Relabeling the carrier by a permutation sigma maps every self-map T
    to sigma T sigma^-1, a bijection that preserves each hypothesis and
    conclusion, so every oracle count is unchanged."""

    @given(rational_metrics(), st.sampled_from(["max", "perimeter"]), st.data())
    @settings(max_examples=12, deadline=None)
    def test_counts_invariant(self, metric, construction, data):
        sigma = data.draw(st.permutations(range(metric.size)))
        relabeled = gm.build_gmetric(_relabeled(metric, sigma), construction)
        original = gm.build_gmetric(metric, construction)
        for theorem, raw in ORACLE_RUNS:
            params = {k: catalog.get_aux(v) if k == "a" else
                      catalog.get_gauge(v) if k == "gauge" else v for k, v in raw.items()}
            counts = [(r.maps_total, r.maps_satisfying_hypothesis, r.conclusion_holds,
                       len(r.counterexamples), r.hypothesis_failing)
                      for r in (gm.exhaustive_theorem_check(sp, theorem, params)
                                for sp in (original, relabeled))]
            assert counts[0] == counts[1], theorem


MAJORANT_SPECS = [
    gm.ConditionSpec(id="C-Q", q=Fraction(1, 2)),
    gm.ConditionSpec(id="C-Q", q=Fraction(9, 10), a=catalog.get_aux("reciprocal-cap-2")),
    gm.ConditionSpec(id="C-UNIT", a=catalog.get_aux("constant-1/3")),
    gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("ratio1")),
    gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("half"),
                     a=catalog.get_aux("constant-1/3")),
    gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("linear-9/10")),
]
EXTENSION_PARAMS = [{"alpha": Fraction(2)}, {"beta": Fraction(2, 3)}, {"delta": Fraction(1, 2)}]


def _ext_verdict(space, smap, triple, params):
    v = gm.eval_extension(space, smap, *triple, **params)
    return v.i or v.ii or v.iii


def _verdict_values(v):
    return v.status, v.lhs, v.rhs, v.excluded_terms


@st.composite
def exact_spaces_and_maps(draw):
    """A max or perimeter space on a random rational table, and a random self-map."""
    metric = draw(rational_metrics())
    construction = draw(st.sampled_from(["max", "perimeter"]))
    m = metric.size
    table = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    space = gm.build_gmetric(metric, construction)
    return metric, construction, space, gm.table_self_map(space, table)


class TestExactVerdictSymmetries:
    """Exact regime: G of both constructions is symmetric in its arguments,
    so is every majorant and extension term, and the extension conditions
    are homogeneous of degree 1 in G."""

    @given(exact_spaces_and_maps())
    @settings(max_examples=20, deadline=None)
    def test_verdicts_invariant_under_argument_permutation(self, case):
        _, _, space, smap = case
        m = space.carrier.size
        for triple in product(range(m), repeat=3):
            perms = list(permutations(triple))
            for params in EXTENSION_PARAMS:
                got = {_verdict_values(_ext_verdict(space, smap, p, params)) for p in perms}
                assert len(got) == 1, (triple, params)
            if triple[0] == triple[1]:
                continue
            for spec in MAJORANT_SPECS:
                got = {_verdict_values(gm.eval_condition(space, smap, spec, *p))
                       for p in perms if p[0] != p[1]}
                assert len(got) == 1, (triple, spec)

    @given(exact_spaces_and_maps(), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_extension_verdicts_invariant_under_scaling(self, case, num, den):
        metric, construction, space, smap = case
        c = Fraction(num, den)
        scaled = gm.build_gmetric(
            gm.FiniteMetric.from_rows([[c * v for v in row] for row in metric.d]), construction)
        m = space.carrier.size
        for triple in product(range(m), repeat=3):
            for params in EXTENSION_PARAMS:
                v = _ext_verdict(space, smap, triple, params)
                w = _ext_verdict(scaled, smap, triple, params)
                assert (w.status, w.lhs, w.rhs) == (v.status, c * v.lhs, c * v.rhs)


class TestConstructionAxioms:
    @given(rational_metrics(), st.sampled_from(["max", "perimeter"]))
    @settings(max_examples=40, deadline=None)
    def test_both_constructions_satisfy_all_axioms(self, metric, construction):
        sp = gm.build_gmetric(metric, construction)
        assert gm.exhaustive_axiom_check(sp).all_pass()

    @given(rational_metrics())
    @settings(max_examples=30, deadline=None)
    def test_max_construction_recovers_metric(self, metric):
        sp = gm.build_gmetric(metric, "max")
        for i in range(metric.size):
            for j in range(metric.size):
                assert gm.eval_g(sp, i, j, j) == metric.d[i][j]

    @given(rational_metrics(), st.sampled_from(["max", "perimeter"]))
    @settings(max_examples=25, deadline=None)
    def test_derived_metric_is_a_metric(self, metric, construction):
        sp = gm.build_gmetric(metric, construction)
        m = metric.size
        d = [[gm.derived_metric(sp, i, j) for j in range(m)] for i in range(m)]
        for i in range(m):
            assert d[i][i] == 0
            for j in range(m):
                assert d[i][j] == d[j][i]
                assert (d[i][j] > 0) == (i != j)
                for k in range(m):
                    assert d[i][j] <= d[i][k] + d[k][j]


class TestPermutationInvariance:
    @given(st.tuples(finite_floats, finite_floats, finite_floats))
    @settings(max_examples=60)
    def test_max_distance_symmetric_in_arguments(self, triple):
        sp = catalog.space_absmax()
        vals = {gm.eval_g(sp, *p) for p in permutations(triple)}
        assert len(vals) == 1


class TestBounds:
    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=1e-6, max_value=1e3),
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=60)
    def test_bound_decreases_in_iteration_count(self, q, g0, n):
        assert gm.apriori_bound(q, g0, n + 1) <= gm.apriori_bound(q, g0, n)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-9, max_value=1e2))
    @settings(max_examples=60)
    def test_iterations_needed_is_minimal(self, q, g0, eps):
        n = gm.iterations_needed(q, g0, eps)
        assert gm.apriori_bound(q, g0, n) <= eps
        if n > 0:
            assert gm.apriori_bound(q, g0, n - 1) > eps


class TestOrbitInvariants:
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.01, max_value=100.0),
           st.integers(min_value=2, max_value=40))
    @settings(max_examples=40)
    def test_gap_recomputation_bitwise(self, c, x0, n):
        sp = catalog.space_absmax()
        smap = gm.SelfMap(domain=sp.carrier, apply=lambda x: c * x, name="scale")
        tr = gm.orbit(sp, smap, x0, n)
        for k, gap in enumerate(tr.gaps):
            assert gap == gm.eval_g(sp, tr.points[k], tr.points[k + 1],
                                    tr.points[k + 1])

    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=30)
    def test_orbit_gaps_dominated_by_certified_bound(self, q, x0):
        sp = catalog.space_absmax()
        smap = gm.SelfMap(domain=sp.carrier, apply=lambda x: q * x, name="scale")
        tr = gm.orbit(sp, smap, x0, 25)
        g0 = tr.gaps[0]
        for n in range(len(tr.gaps)):
            assert tr.gaps[n] <= gm.apriori_bound(q, g0, n) + 1e-12 * (1 + g0)


class TestFactorOrdering:
    @given(st.floats(min_value=1.0, max_value=2.999),
           st.floats(min_value=0.5, max_value=0.999),
           st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=60)
    def test_paper_combination_never_exceeds_sound(self, alpha, beta, delta):
        p = gm.contraction_factor(alpha, beta, delta, mode="paper")
        s = gm.contraction_factor(alpha, beta, delta, mode="sound")
        assert p.lam <= s.lam


class TestClusterRecount:
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                    min_size=4, max_size=40),
           st.floats(min_value=0.01, max_value=1.0),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=40)
    def test_returned_point_has_enough_hits(self, points, tol, min_hits):
        sp = catalog.space_absmax()
        tr = gm.OrbitTrace(points=points, gaps=[0.0] * (len(points) - 1))
        got = gm.detect_cluster_point(sp, tr, tol=tol, min_hits=min_hits)
        if got is not None:
            assert sum(1 for p in points if abs(got - p) <= tol) >= min_hits
        else:
            for u in points:
                assert sum(1 for p in points if abs(u - p) <= tol) < min_hits


class TestDiagnosisImplication:
    @given(st.floats(min_value=0.2, max_value=0.8),
           st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_point_indicator_bounds_derived_metric(self, ratio, x0):
        sp = catalog.space_absmax()
        prefix = [x0 * ratio ** n for n in range(80)]
        eps = prefix[-1] * 2 + 1e-15
        d = gm.diagnose_sequence(sp, prefix, candidate=0.0, eps=eps)
        for g_nn, dg in zip(d.tail_traces["G_x_xn_xn"], d.tail_traces["dG_xn_x"]):
            if g_nn <= eps:
                assert dg <= 2 * eps


class TestSamplerContract:
    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=20)
    def test_stream_respects_distinctness_and_determinism(self, seed):
        sp = catalog.space_absmax()
        a = list(islice(sampling.triple_stream(sp, seed=seed, lo=0, hi=10), 30))
        b = list(islice(sampling.triple_stream(sp, seed=seed, lo=0, hi=10), 30))
        assert a == b
        for (x, y, _z) in a:
            assert abs(x - y) > 1e-12


class TestGaugeDiagonalMonotone:
    def test_monotone_gauges_have_monotone_diagonals(self):
        grid = [1e-3, 0.1, 1.0, 10.0, 1e3]
        for name in ("ratio1", "half", "linear-0.9"):
            g = catalog.get_gauge(name)
            rep = gm.check_gauge_admissible(g, grid, n_max=100, thresh=1e-8)
            assert rep.monotone.passed
            diag = [g.diagonal(t) for t in sorted(grid)]
            assert all(a <= b for a, b in zip(diag, diag[1:]))


def _g4_c_order_scan(space, pts):
    """Reference G4 verdict: all ordered triples of ``pts`` in C order."""
    reg = Regime(space.exact, DEFAULT_TOL)
    for t in product(pts, repeat=3):
        vals = tuple(raw_g(space, *p) for p in permutations(t))
        if reg.distinct(max(vals), min(vals)):
            return gm.Verdict("FAIL", witness=t, values=vals)
    return gm.Verdict("PASS")


@st.composite
def asymmetric_exact_spaces(draw):
    """An exact space on a random n^3 table: symmetric in its arguments
    except for a few overridden entries."""
    n = draw(st.integers(1, 4))
    values = st.integers(0, 3).map(Fraction)
    base = {t: draw(values) for t in product(range(n), repeat=3) if list(t) == sorted(t)}
    table = {t: base[tuple(sorted(t))] for t in product(range(n), repeat=3)}
    table.update(draw(st.dictionaries(st.tuples(*[st.integers(0, n - 1)] * 3), values,
                                      max_size=3)))
    return gm.GMetricSpace(carrier=gm.FiniteCarrier(n), g=lambda *t: table[t],
                           arithmetic="exact", symmetric_claimed=False)


class TestG4OneTriplePerClass:
    """check_axioms reads one triple per permutation class for G4; its
    verdict, witness and values equal a scan of every ordered triple."""

    @given(asymmetric_exact_spaces())
    @settings(max_examples=80, deadline=None)
    def test_exact_tables(self, space):
        got = gm.check_axioms(space, mode="exhaustive", tol=0.0).verdicts["G4"]
        assert got == _g4_c_order_scan(space, list(range(space.carrier.size)))

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(-10, 10),
                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_float_drop_z_samples(self, sample):
        space = catalog.space_drop_z()
        got = gm.check_axioms(space, sample).verdicts["G4"]
        assert got == _g4_c_order_scan(space, list(dict.fromkeys(sample)))


def _reference_oracle(space, theorem, spec, scope):
    """(maps_total, satisfying, conclusion_holds, counterexamples,
    hypothesis_failing) from all m^m tables filtered for injectivity, with
    the condition decided by eval_condition, triple by triple."""
    m = space.carrier.size
    carrier_triples = [t for t in product(range(m), repeat=3) if t[0] != t[1]]
    satisfying = holds = 0
    counterexamples = []
    for table in product(range(m), repeat=m):
        if len(set(table)) != m:
            continue
        smap = gm.table_self_map(space, table)
        cycles = []
        for a in range(m):
            visits = [a]
            while table[visits[-1]] not in visits:
                visits.append(table[visits[-1]])
            cycles.append(tuple(visits[visits.index(table[visits[-1]]):]))
        if scope == "orbit":
            triples = {t for c in cycles for t in product(c, repeat=3) if t[0] != t[1]}
        else:
            triples = carrier_triples
        if not all(gm.eval_condition(space, smap, spec, *t).holds for t in triples):
            continue
        satisfying += 1
        violation = next(((table, "cluster-not-fixed" if theorem == "THM-2.5"
                           else "orbit-not-convergent", {"start": a, "cycle": c})
                          for a, c in enumerate(cycles) if len(c) != 1), None)
        if (violation is None and theorem != "THM-2.5" and scope == "carrier"
                and gm.check_aux_bound(space, smap, spec.a, carrier_triples).passed):
            fixed = tuple(i for i in range(m) if table[i] == i)
            if len(fixed) != 1:
                violation = (table, "fixed-point-not-unique", {"fixed_points": fixed})
        if violation is None:
            holds += 1
        else:
            counterexamples.append(violation)
    return m ** m, satisfying, holds, counterexamples, m ** m - satisfying


class TestInjectiveOracleReference:
    """THM-2.2, 2.5 and 2.10 read only the m! permutations; every report
    equals one built from all m^m tables filtered for injectivity."""

    def test_reports_match(self):
        rng = np.random.default_rng(20261018)
        metrics = [gm.random_metric(rng, min_size=2, max_size=4) for _ in range(10)]
        for metric, construction, scope, weight in product(
                metrics, ("max", "perimeter"), ("carrier", "orbit"), ("zero", "constant-1/3")):
            space = gm.build_gmetric(metric, construction)
            aux = catalog.get_aux(weight)
            runs = [("THM-2.2", gm.ConditionSpec(id="C-Q", q=Fraction(9, 10), a=aux),
                     {"q": "9/10"}),
                    ("THM-2.5", gm.ConditionSpec(id="C-UNIT", a=aux), {})]
            # identity-diag is not admissible, so its maps give counterexamples
            runs += [("THM-2.10", gm.ConditionSpec(id="C-GAUGE", h=h, a=aux), {"gauge": h})
                     for h in map(catalog.get_gauge, ("half", "identity-diag"))]
            for theorem, spec, params in runs:
                r = gm.exhaustive_theorem_check(space, theorem,
                                                {**params, "a": aux, "scope": scope})
                assert (r.maps_total, r.maps_satisfying_hypothesis, r.conclusion_holds,
                        r.counterexamples, r.hypothesis_failing) \
                    == _reference_oracle(space, theorem, spec, scope), (theorem, scope, weight)


def _reference_extension_oracle(space, params):
    """(maps_total, satisfying, conclusion_holds, counterexamples,
    hypothesis_failing) of THM-2.12 from all m^m tables, with every triple
    of every orbit set, x == y included, decided by eval_extension."""
    m = space.carrier.size
    satisfying = holds = 0
    counterexamples = []
    for table in product(range(m), repeat=m):
        smap = gm.table_self_map(space, table)
        orbits = []
        for a in range(m):
            visits = [a]
            while table[visits[-1]] not in visits:
                visits.append(table[visits[-1]])
            orbits.append(visits)
        triples = {t for visits in orbits for t in product(visits, repeat=3)}
        if not all(gm.eval_extension(space, smap, *t, **params).any_holds for t in triples):
            continue
        satisfying += 1
        cycles = [tuple(v[v.index(table[v[-1]]):]) for v in orbits]
        violation = next(((table, "orbit-not-convergent", {"start": a, "cycle": c})
                          for a, c in enumerate(cycles) if len(c) != 1), None)
        if violation is None:
            holds += 1
        else:
            counterexamples.append(violation)
    return m ** m, satisfying, holds, counterexamples, m ** m - satisfying


class TestExtensionOracleReference:
    """THM-2.12 decides all m^m tables; every report equals one built triple
    by triple from eval_extension, on small rationals and on a delta with a
    10^30 denominator."""

    def test_reports_match(self):
        rng = np.random.default_rng(20261018)
        metrics = [gm.random_metric(rng, min_size=2, max_size=4) for _ in range(10)]
        param_sets = [{"alpha": Fraction(5, 2)}, {"beta": Fraction(3, 4)},
                      {"delta": Fraction(9, 10)},
                      {"alpha": Fraction(2), "beta": Fraction(2, 3), "delta": Fraction(1, 2)}]
        for n, (metric, construction) in enumerate(product(metrics, ("max", "perimeter"))):
            space = gm.build_gmetric(metric, construction)
            runs = param_sets + [{"delta": Fraction(9 * 10 ** 29 + 1, 10 ** 30)}] * (n == 0)
            for params in runs:
                r = gm.exhaustive_theorem_check(space, "THM-2.12", params)
                assert (r.maps_total, r.maps_satisfying_hypothesis, r.conclusion_holds,
                        r.counterexamples, r.hypothesis_failing) \
                    == _reference_extension_oracle(space, params), (n, params)


def _first_triangle_failure(rows):
    """Reference triangle check: every (i, j, k) in C order."""
    for i, j, k in product(range(len(rows)), repeat=3):
        if rows[i][j] > rows[i][k] + rows[k][j]:
            return f"triangle inequality fails at ({i},{j}) via {k}"
    return None


@st.composite
def symmetric_tables(draw, kind):
    """A symmetric table, zero on the diagonal and positive off it.

    ``spread``: every off-diagonal entry in [s, 2s] for its denominator s.
    ``closure``: the shortest-path closure of weights in [1, 10], a metric
    whose largest entry exceeds twice its smallest.  ``broken``: a closure
    with one entry raised past a two-step path.  The table is then scaled,
    which keeps its first failure; the big factors need Python ints.
    """
    m = draw(st.integers(1 if kind == "spread" else 3, 6))
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            den = draw(st.integers(1, 12))
            top = 2 * den if kind == "spread" else 10 * den
            rows[i][j] = rows[j][i] = Fraction(draw(st.integers(den, top)), den)
    if kind != "spread":
        for k, i, j in product(range(m), repeat=3):
            rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
        off = [v for i, row in enumerate(rows) for j, v in enumerate(row) if i != j]
        assume(max(off) > 2 * min(off))
    if kind == "broken":
        i, j, k = draw(st.permutations(range(m)))[:3]
        rows[i][j] = rows[j][i] = rows[i][k] + rows[k][j] + Fraction(1, draw(st.integers(1, 12)))
    scale = draw(st.sampled_from([1, 10 ** 20 + 1, Fraction(10 ** 30 + 1, 10 ** 30)]))
    return [[v * scale for v in row] for row in rows]


class TestTriangleCheckReference:
    """FiniteMetric accepts a table exactly when a loop over every (i, j, k)
    finds no failure, and otherwise names the loop's first failure: inside
    and outside the 2x spread, on int64 and on Python-int tables."""

    @pytest.mark.parametrize("kind", ["spread", "closure", "broken"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_triple_loop(self, kind, data):
        rows = data.draw(symmetric_tables(kind))
        want = _first_triangle_failure(rows)
        assert (want is None) == (kind != "broken")
        if want is None:
            assert gm.FiniteMetric.from_rows(rows).d == tuple(map(tuple, rows))
        else:
            with pytest.raises(gm.ParameterError) as err:
                gm.FiniteMetric.from_rows(rows)
            assert str(err.value) == want

    @pytest.mark.parametrize("rows, numpy_check", [
        ([[0]], False),
        ([[0, 7], [7, 0]], False),
        ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], False),
        ([[0, 1, 3], [1, 0, 2], [3, 2, 0]], True),
    ], ids=["m1", "m2", "spread-2", "spread-3"])
    def test_numpy_check_only_outside_the_spread(self, monkeypatch, rows, numpy_check):
        arrays = []

        def array(*args, **kwargs):
            arrays.append(args)
            return np.array(*args, **kwargs)
        monkeypatch.setattr(spaces.np, "array", array)
        gm.FiniteMetric.from_rows(rows)
        assert bool(arrays) == numpy_check
