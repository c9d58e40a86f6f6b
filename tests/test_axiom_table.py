"""``check_axioms`` over one tabulated G against the scalar quadruple loops it
replaced, kept here as the reference: the whole ``AxiomReport`` must be equal,
first failing witness and values included."""
import random
from fractions import Fraction
from functools import cache, partial
from itertools import combinations_with_replacement, permutations

import pytest

import gmetric as gm
from gmetric import catalog, sampling, spaces
from gmetric.oracle import FiniteMetric, build_gmetric, random_metric
from gmetric.spaces import (
    DEFAULT_TOL,
    FAIL,
    PASS,
    SKIPPED,
    AxiomReport,
    FiniteCarrier,
    GMetricSpace,
    RealCarrier,
    Regime,
    Verdict,
    raw_g,
)


def _first_failure(failures):
    for witness, values in failures:
        return Verdict(FAIL, witness=witness, values=values)
    return Verdict(PASS)


def _reference_symmetry_failures(reg, g, pts):
    for x in pts:
        for y in pts:
            a, b = g(x, y, y), g(x, x, y)
            if reg.distinct(a, b):
                yield (x, y), (a, b)


def reference_check_axioms(space, sample=None, tol=DEFAULT_TOL, mode="sampled"):
    """The scalar loops ``check_axioms`` ran before it tabulated G."""
    pts = spaces._axiom_points(space, sample, mode)
    reg = Regime(space.exact, tol)
    distinct, exceeds = reg.distinct, reg.exceeds
    g = cache(partial(raw_g, space))

    def g1():
        for x in pts:
            val = g(x, x, x)
            if distinct(val, reg.zero):
                yield (x, x, x), (val,)

    def g2():
        for x in pts:
            for y in pts:
                if distinct(x, y):
                    val = g(x, x, y)
                    if not exceeds(val, reg.zero):
                        yield (x, x, y), (val,)

    def g3():
        for x in pts:
            for y in pts:
                lhs = None
                for z in pts:
                    if not distinct(z, y):
                        continue
                    if lhs is None:
                        lhs = g(x, x, y)
                    rhs = g(x, y, z)
                    if exceeds(lhs, rhs):
                        yield (x, y, z), (lhs, rhs)

    def g4():
        for t in combinations_with_replacement(pts, 3):
            vals = [g(*p) for p in permutations(t)]
            if distinct(max(vals), min(vals)):
                yield t, tuple(vals)

    def g5():
        for x in pts:
            for y in pts:
                for z in pts:
                    lhs = g(x, y, z)
                    for a in pts:
                        rhs = g(x, a, a) + g(a, y, z)
                        if exceeds(lhs, rhs):
                            yield (x, y, z, a), (lhs, rhs)

    verdicts = {"G1": _first_failure(g1()), "G2": _first_failure(g2()),
                "G3": _first_failure(g3()), "G4": _first_failure(g4()),
                "G5": _first_failure(g5())}
    if space.symmetric_claimed:
        verdicts["symmetry"] = _first_failure(_reference_symmetry_failures(reg, g, pts))
    else:
        verdicts["symmetry"] = Verdict(SKIPPED, note="space does not claim symmetry")
    n = len(pts)
    return AxiomReport(verdicts=verdicts, sample_size=n ** 3, quadruple_count=n ** 4, mode=mode)


def reference_check_symmetry(space, sample, tol=DEFAULT_TOL):
    pts = [spaces.normalize_point(space.carrier, p) for p in sample]
    reg = Regime(space.exact, tol)
    return _first_failure(_reference_symmetry_failures(reg, partial(raw_g, space), pts))


def _assert_same(space, sample=None, tol=DEFAULT_TOL, mode="sampled"):
    got = gm.check_axioms(space, sample, tol=tol, mode=mode)
    want = reference_check_axioms(space, sample, tol=tol, mode=mode)
    assert got == want
    for key, verdict in got.verdicts.items():  # Fraction values stay Fractions
        assert [type(v) for v in verdict.values or ()] == \
            [type(v) for v in want.verdicts[key].values or ()], key
    return got


def _table_space(values, m, symmetric=True, name="table"):
    """An exact space on m points reading G from a dict keyed by triples."""
    return GMetricSpace(carrier=FiniteCarrier(m), g=lambda i, j, k: values[i, j, k],
                        arithmetic="exact", symmetric_claimed=symmetric, name=name)


def _tabulate(space):
    m = space.carrier.size
    return {(i, j, k): space.g(i, j, k) for i in range(m) for j in range(m) for k in range(m)}


def _seeded_metric(seed):
    return random_metric(sampling.make_rng(seed), 2, 9)


def _long_metric(m, seed, digits=1000):
    """Entries 1 + p/q in [1, 2] with distinct ``digits``-digit denominators."""
    rnd = random.Random(seed)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            q = rnd.randrange(10 ** (digits - 1), 10 ** digits)
            rows[i][j] = rows[j][i] = 1 + Fraction(rnd.randrange(q), q)
    return FiniteMetric.from_rows(rows)


class TestTableEqualsScalarLoops:
    @pytest.mark.parametrize("name", ["absmax", "perimeter-r", "drop-z", "finite-uniform-1",
                                      "finite-uniform-2", "finite-uniform-3",
                                      "finite-uniform-7", "finite-uniform-16"])
    def test_every_catalog_space(self, name):
        space = catalog.get_space(name)
        if isinstance(space.carrier, FiniteCarrier):
            _assert_same(space, mode="exhaustive")
            _assert_same(space, [p for p in (4, 0, 0, 2, 6) if p < space.carrier.size], tol=0.0)
        else:
            for tol in (DEFAULT_TOL, 0.0, 1e-3):
                _assert_same(space, catalog.standard_sample(space), tol=tol)

    @pytest.mark.parametrize("name", ["absmax", "perimeter-r", "drop-z"])
    def test_sampled_real_spaces(self, name):
        space = catalog.get_space(name)
        for seed, (lo, hi) in enumerate([(0.0, 100.0), (0.0, 100.0), (-5.0, 5.0), (0.0, 1e-9)]):
            drawn = sampling.sample_points(space, 16, seed, lo, hi)
            _assert_same(space, catalog.standard_sample(space) + drawn)
        # near-equal points: distinct in value, equal within the tolerance
        _assert_same(space, [1.0, 1.0 + 1e-15, 2.0, 2.0 + 4e-12, 3.0], tol=1e-12)

    @pytest.mark.parametrize("construction", ["max", "perimeter"])
    def test_seeded_tables(self, construction):
        for seed in range(12):
            report = _assert_same(build_gmetric(_seeded_metric(seed), construction),
                                  mode="exhaustive", tol=0.0)
            assert report.all_pass(), seed

    def test_perturbed_tables_fail_as_the_loops_do(self):
        failed = set()
        rnd = random.Random(3)
        for seed in range(40):
            space = build_gmetric(_seeded_metric(seed), rnd.choice(["max", "perimeter"]))
            m = space.carrier.size
            values = _tabulate(space)
            i, j, k = (rnd.randrange(m) for _ in range(3))
            new = values[i, j, k] * rnd.choice([0, Fraction(1, 3), 2, 5])
            keys = set(permutations((i, j, k))) if seed % 2 else {(i, j, k)}
            values.update(dict.fromkeys(keys, new))  # a whole class keeps G4
            report = _assert_same(_table_space(values, m), mode="exhaustive")
            failed.update(report.failures())
        assert {"G3", "G5", "symmetry"} <= failed

    def test_float_table_at_the_tolerance_boundary(self):
        # entries raised by 0.5 to 3.5 times the slack tol * (1 + |v|): the
        # row screen must flag every row whose failure clears the slack
        failed, tol = set(), 1e-3
        rnd = random.Random(5)
        for seed in range(40):
            space = build_gmetric(_seeded_metric(seed), rnd.choice(["max", "perimeter"]))
            m = space.carrier.size
            values = {key: float(v) for key, v in _tabulate(space).items()}
            i, j, k = rnd.randrange(m), rnd.randrange(m), rnd.randrange(m)
            v = values[i, j, k]
            new = v + rnd.choice([0.5, 1.5, 2.5, 3.5]) * tol * (1 + v)
            values.update(dict.fromkeys(permutations((i, j, k)), new))
            floats = GMetricSpace(carrier=FiniteCarrier(m), g=lambda *p: values[p])
            report = _assert_same(floats, mode="exhaustive", tol=tol)
            failed.update(report.failures())
        assert {"G3", "G5"} <= failed

    def test_arbitrary_exact_g_that_fails_every_axiom(self):
        failed = set()
        for seed in range(30):
            rnd = random.Random(seed)
            m = rnd.randrange(2, 7)
            values = {key: rnd.choice([rnd.randrange(-2, 6),
                                       Fraction(rnd.randrange(-3, 9), rnd.randrange(1, 5))])
                      for key in combinations_with_replacement(range(m), 3)}
            values = {(i, j, k): values.get((i, j, k), rnd.randrange(0, 4))
                      for i in range(m) for j in range(m) for k in range(m)}
            report = _assert_same(_table_space(values, m, symmetric=bool(seed % 3)),
                                  mode="exhaustive")
            failed.update(report.failures())
        assert failed == set(spaces.AXIOM_KEYS)

    @pytest.mark.parametrize("construction", ["max", "perimeter"])
    def test_thousand_digit_denominators(self, construction):
        space = build_gmetric(_long_metric(5, 7), construction)
        assert _assert_same(space, mode="exhaustive").all_pass()
        values = _tabulate(space)
        values[0, 1, 2] = values[0, 1, 2] * 3  # fails G4, G5
        values[3, 4, 4] = values[3, 4, 4] / 2  # fails symmetry
        report = _assert_same(_table_space(values, 5), mode="exhaustive")
        assert {"G4", "G5", "symmetry"} <= set(report.failures())

    @pytest.mark.parametrize("exact, bad", [
        (True, 0.5),  # a float from an exact space
        (True, float("nan")),
        (False, float("nan")),
        (False, float("inf")),
    ], ids=["exact-float", "exact-nan", "float-nan", "float-inf"])
    def test_bad_value_raises_as_the_loops_do(self, exact, bad):
        def g(i, j, k):
            return bad if (i, j, k) == (2, 0, 1) else Fraction(i != j)
        if exact:
            space, sample, mode = GMetricSpace(FiniteCarrier(4), g, "exact"), None, "exhaustive"
        else:
            space, sample, mode = GMetricSpace(RealCarrier(), g), [0.0, 1.0, 2.0, 3.0], "sampled"
        for check in (reference_check_axioms, gm.check_axioms):
            with pytest.raises(gm.DomainError):
                check(space, sample, mode=mode)

    def test_g_that_raises_domain_error(self):
        def g(i, j, k):
            if k == 3:
                raise gm.DomainError("pole")
            return Fraction(len({i, j, k}) - 1)
        space = GMetricSpace(carrier=FiniteCarrier(4), g=g, arithmetic="exact")
        with pytest.raises(gm.DomainError):
            reference_check_axioms(space, mode="exhaustive")
        with pytest.raises(gm.DomainError):
            gm.check_axioms(space, mode="exhaustive")


class TestSymmetryLoop:
    @pytest.mark.parametrize("name", ["absmax", "drop-z", "finite-uniform-4"])
    def test_check_symmetry_equals_the_pair_loop(self, name):
        space = catalog.get_space(name)
        sample = [0, 3, 1, 3, 2]
        assert gm.check_symmetry(space, sample) == reference_check_symmetry(space, sample)

    def test_check_symmetry_on_a_perturbed_table(self):
        space = build_gmetric(_seeded_metric(4), "perimeter")
        values = _tabulate(space)
        m = space.carrier.size
        values[m - 1, 0, 0] = values[m - 1, 0, 0] + 1
        broken = _table_space(values, m)
        sample = list(range(m))[::-1]
        got = gm.check_symmetry(broken, sample)
        assert got.status == FAIL and got == reference_check_symmetry(broken, sample)


class TestSizeLimit:
    def test_past_the_limit_raises_before_any_g(self):
        calls = []
        space = GMetricSpace(carrier=FiniteCarrier(spaces.AXIOM_POINTS_MAX + 1),
                             g=lambda i, j, k: calls.append(1) or 0, arithmetic="exact")
        with pytest.raises(gm.ParameterError, match="limit"):
            gm.check_axioms(space, mode="exhaustive")
        with pytest.raises(gm.ParameterError, match="limit"):
            gm.check_axioms(catalog.space_absmax(),
                            [float(p) for p in range(spaces.AXIOM_POINTS_MAX + 1)])
        assert calls == []

    def test_duplicates_do_not_count(self):
        sample = [0.0, 1.0] * spaces.AXIOM_POINTS_MAX
        assert gm.check_axioms(catalog.space_absmax(), sample).sample_size == 8
