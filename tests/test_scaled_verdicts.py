"""Extension verdicts on scaled integers against the Fraction path they
stand in for.

A space from ``build_gmetric`` carries its G as a ``ScaledG``; the same space
with only the Fraction G (``_fraction_only``) takes the reference path.  The
two must give the same status, sides, tallies, worst lists, report bytes and
oracle tables, also with parameters at, just below and just above a tie.
"""
import dataclasses
import random
from fractions import Fraction as F
from itertools import islice, product

import pytest

import gmetric as gm
from gmetric import catalog, conditions, reports, sampling
from gmetric.conditions import _EvalContext, _decider, _eval_spec
from gmetric.oracle import _hypothesis_tables
from gmetric.spaces import HOLDS_WEAK, ScaledG, scaled_form

EPS = F(1, 10 ** 40)


def _fraction_only(space):
    return dataclasses.replace(space, g=space.g.fraction)


def _long_metric(m, seed, digits=1000):
    """Entries 1 + p/q in [1, 2] with distinct ``digits``-digit denominators."""
    rnd = random.Random(seed)
    rows = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            q = rnd.randrange(10 ** (digits - 1), 10 ** digits)
            rows[i][j] = rows[j][i] = 1 + F(rnd.randrange(q), q)
    return gm.FiniteMetric.from_rows(rows)


def _seeded(construction, seed, m):
    return gm.build_gmetric(gm.random_metric(sampling.make_rng(seed), m, m), construction)


SPACES = {
    "uniform-5": lambda: catalog.space_finite_uniform(5),
    "max-5": lambda: _seeded("max", 11, 5),
    "perimeter-5": lambda: _seeded("perimeter", 12, 5),
    "long-max-3": lambda: gm.build_gmetric(_long_metric(3, 1), "max"),
    "long-perimeter-3": lambda: gm.build_gmetric(_long_metric(3, 2), "perimeter"),
}


def _tables(m):
    """Identity, a cyclic shift, a constant map and a seeded table."""
    rnd = random.Random(m)
    return [tuple(range(m)), tuple((i + 1) % m for i in range(m)), (0,) * m,
            tuple(rnd.randrange(m) for _ in range(m))]


# (condition, parameter, its range, a reference value inside it)
CASES = [
    ("EXT-I", "alpha", (1, 3), F(2)),
    ("EXT-II", "beta", (F(1, 2), 1), F(3, 4)),
    ("EXT-III", "delta", (0, 1), F(1, 2)),
]


def _spec(case, value):
    return gm.ConditionSpec(id=case[0], **{case[1]: value})


def _triples(m):
    return list(product(range(m), repeat=3))


def _ties(space, table, case, count=2):
    """Up to ``count`` parameter values in range at which some triple's two
    sides are equal, read from the Fraction path, where rhs is linear in the
    parameter."""
    cid, name, (lo, hi), ref = case
    ctx = _EvalContext(_fraction_only(space))
    found = set()
    for x, y, z in _triples(space.carrier.size):
        v = _eval_spec(ctx, _spec(case, ref), x, y, z, table[x], table[y], table[z])
        if v.rhs and lo <= ref * v.lhs / v.rhs < hi and v.lhs:
            found.add(ref * v.lhs / v.rhs)
    return sorted(found)[:count]


def _values(ties, case):
    """Each tie, just below and just above, where in range; a parameter is
    printed in the report's params, so one past 4300 digits is left out."""
    lo, hi = case[2]
    return [v for t in ties for v in (t - EPS, t, t + EPS)
            if lo <= v < hi and max(v.numerator.bit_length(), v.denominator.bit_length()) < 14_000]


def _certificate_bytes(cert):
    """The rendered report, or the error of a rational too long to print."""
    try:
        return reports.render_report(reports.certificate_dict(cert))
    except gm.ParameterError as e:
        return str(e)


@pytest.mark.parametrize("name", list(SPACES))
class TestDecisionsMatch:
    def test_form_is_the_fraction_g(self, name):
        space = SPACES[name]()
        form = scaled_form(space)
        assert isinstance(form, ScaledG)
        m = space.carrier.size
        for t in product(range(m), repeat=3):
            assert F(form.ints(*t), form.scale) == form.fraction(*t) == space.g(*t)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_every_triple_at_and_around_ties(self, name, case):
        space = SPACES[name]()
        reference = _fraction_only(space)
        m = space.carrier.size
        values = weak = 0
        for table in _tables(m):
            for value in _values(_ties(space, table, case), case):
                values += 1
                spec = _spec(case, value)
                decide, unit = _decider(_EvalContext(space), spec)
                ctx = _EvalContext(reference)
                for t in _triples(m):
                    key = (*t, *(table[p] for p in t))
                    status, terms, rank, lhs, rhs = decide(*key)
                    v = _eval_spec(ctx, spec, *key)
                    assert (status, terms, unit(lhs), unit(rhs)) == (
                        v.status, v.excluded_terms, v.lhs, v.rhs), key
                    assert rank == rhs - lhs
                    weak += status == HOLDS_WEAK
        assert weak or not values  # a tie holds weakly

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_certificates_and_report_bytes(self, name, case):
        space = SPACES[name]()
        reference = _fraction_only(space)
        m = space.carrier.size
        # every triple twice, then a seeded stream: more than one chunk
        stream = _triples(m) * 2 + list(
            islice(sampling.triple_stream(space, seed=3), sampling.BLOCK))
        for table in _tables(m):
            smap = gm.table_self_map(space, table)
            for value in _values(_ties(space, table, case, count=1), case):
                spec = _spec(case, value)
                for cap in (0, 3, 10):
                    fast = gm.certify_on_samples(space, smap, spec, iter(stream), len(stream),
                                                 worst_cap=cap)
                    slow = gm.certify_on_samples(reference, smap, spec, iter(stream),
                                                 len(stream), worst_cap=cap)
                    assert fast == slow
                    assert _certificate_bytes(fast) == _certificate_bytes(slow)


@pytest.mark.parametrize("name", ["uniform-5", "max-5", "perimeter-5", "long-perimeter-3"])
def test_oracle_search_and_reports(name):
    """THM-2.12 with each parameter at and around a tie, and with all three:
    the passing tables with their bad starts, and the report bytes."""
    space = SPACES[name]()
    reference = _fraction_only(space)
    m = space.carrier.size
    shift = tuple((i + 1) % m for i in range(m))
    params = [{case[1]: v} for case in CASES for v in _values(_ties(space, shift, case, 1), case)]
    params += [{k: v for p in params for k, v in p.items()}] if params else []
    params.append({"alpha": F(2), "beta": F(3, 4), "delta": F(9, 10)})
    for param in params:
        specs = [_spec(case, param[case[1]]) for case in CASES if case[1] in param]
        fast = list(_hypothesis_tables(_EvalContext(space), specs, m, "orbit"))
        assert fast == list(_hypothesis_tables(_EvalContext(reference), specs, m, "orbit"))
        run = [reports.render_report(reports.theorem_report_dict(
            gm.exhaustive_theorem_check(s, "THM-2.12", param))) for s in (space, reference)]
        assert run[0] == run[1]


def test_only_extension_conditions_with_rational_parameters_take_scaled_integers(monkeypatch):
    space = catalog.space_finite_uniform(4)
    key = (0, 1, 2, 1, 2, 3)
    calls = []

    def spy(*args):
        calls.append(args[2:])
        return _eval_spec(*args)

    monkeypatch.setattr(conditions, "_eval_spec", spy)

    def side(ctx, spec):  # which side decides key
        decide, _ = _decider(ctx, spec)
        del calls[:]
        decide(*key)
        return "Fractions" if calls == [key] else "integers"

    ctx = _EvalContext(space)
    assert side(ctx, gm.ConditionSpec(id="EXT-III", delta=F(1, 2))) == "integers"
    assert side(ctx, gm.ConditionSpec(id="EXT-I", alpha=2)) == "integers"
    for spec in (gm.ConditionSpec(id="EXT-III", delta=0.5),
                 gm.ConditionSpec(id="C-Q", q=F(1, 2)),
                 gm.ConditionSpec(id="C-UNIT", a=gm.AuxWeight.constant(F(3))),
                 gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("half"))):
        assert side(ctx, spec) == "Fractions"
        assert _decider(ctx, spec)[1](EPS) is EPS  # the identity unit
    spec = gm.ConditionSpec(id="EXT-III", delta=F(1, 2))
    assert side(_EvalContext(_fraction_only(space)), spec) == "Fractions"


class TestStaleForm:
    def test_replacing_g_drops_the_form(self):
        space = catalog.space_finite_uniform(5)
        assert scaled_form(dataclasses.replace(space, name="renamed")) is space.g
        assert scaled_form(dataclasses.replace(space, g=lambda *t: space.g(*t))) is None
        assert scaled_form(_fraction_only(space)) is None

    def test_float_arithmetic_does_not_read_the_form(self):
        space = _seeded("perimeter", 4, 5)
        floats = dataclasses.replace(space, arithmetic="float")
        assert isinstance(floats.g, ScaledG) and scaled_form(floats) is None
        spec = gm.ConditionSpec(id="EXT-III", delta=F(1, 2))
        smap = gm.table_self_map(space, (1, 2, 3, 4, 0))
        stream = list(islice(sampling.triple_stream(space, seed=1), 500))
        cert = gm.certify_on_samples(floats, smap, spec, iter(stream), 500)
        assert all(type(v.lhs) is float for v in cert.worst) and cert.worst
        assert cert == gm.certify_on_samples(_fraction_only(floats), smap, spec, iter(stream), 500)

    def test_a_g_that_differs_from_the_table_at_one_triple(self):
        base = _seeded("perimeter", 6, 6)

        def g(*t):
            return F(1, 2) if t == (3, 4, 5) else base.g(*t)
        space = dataclasses.replace(base, g=g)
        assert scaled_form(space) is None
        smap = gm.table_self_map(space, (0, 1, 2, 3, 4, 5))
        spec = gm.ConditionSpec(id="EXT-III", delta=F(9, 10))
        stream = [(3, 4, 5)] * 1200
        cert = gm.certify_on_samples(space, smap, spec, iter(stream), len(stream))
        table = gm.certify_on_samples(base, smap, spec, iter(stream), len(stream))
        # the identity fails EXT-III wherever G(x, y, z) > 0; at (3, 4, 5) the
        # replaced G is 1/2, which the table's integers would not give
        assert cert.fails == table.fails == len(stream)
        assert cert.worst[0] == _eval_spec(_EvalContext(space), spec, 3, 4, 5, 3, 4, 5)
        assert cert.worst[0].lhs == F(1, 2) != table.worst[0].lhs

    def test_replacing_the_metric_table_rebuilds_its_integers(self):
        metric = gm.random_metric(sampling.make_rng(5), 4, 4)
        other = dataclasses.replace(metric, d=gm.FiniteMetric.uniform(4).d)
        assert (other.scale, other.ints) == (1, tuple(tuple(int(i != j) for j in range(4))
                                                     for i in range(4)))
        assert metric.scale > 1 and metric == gm.FiniteMetric(metric.d)


def _sixths_space(seed, m):
    """A symmetric exact space whose G values are drawn from -1/2..2 in sixths,
    so that every axiom can fail, given as a ScaledG of scale 6."""
    rnd = random.Random(seed)
    values = {t: rnd.randrange(-3, 13) for t in product(range(m), repeat=3) if list(t) == sorted(t)}
    values[(1, 1, 1)] = 0
    ints = lambda *t: values[tuple(sorted(t))]  # noqa: E731
    g = ScaledG(lambda *t: F(ints(*t), 6), ints, 6)
    return gm.GMetricSpace(carrier=gm.FiniteCarrier(m), g=g, arithmetic="exact")


@pytest.mark.parametrize("space", [
    _seeded("max", 8, 9), gm.build_gmetric(_long_metric(5, 3), "perimeter"),
    _sixths_space(1, 5), _sixths_space(2, 6)], ids=["max-9", "long-perimeter-5", "sixths-5",
                                                    "sixths-6"])
def test_axioms_read_the_integer_table_alone(space):
    calls = []

    def counted(*t, fraction=space.g.fraction):
        calls.append(t)
        return fraction(*t)
    counting = dataclasses.replace(space, g=ScaledG(counted, space.g.ints, space.g.scale))
    for sample in (None, [3, 0, 4, 0, 1]):
        fast = gm.check_axioms(counting, sample, tol=0.0)
        slow = gm.check_axioms(_fraction_only(space), sample, tol=0.0)
        assert fast == slow
        assert (reports.render_report(reports.axiom_report_dict(fast))
                == reports.render_report(reports.axiom_report_dict(slow)))
    assert calls == []
