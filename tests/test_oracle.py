"""Exact finite-space verification: metrics, enumeration, theorem checks."""
import dataclasses
import io
import json
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import gmetric as gm
from gmetric import catalog
from gmetric.conditions import MAJORANT_IDS, _EvalContext, _eval_spec, _extension_specs
from gmetric.oracle import (DEFAULT_MAP_CAP, RATIONAL_MAX_DIGITS, _hypothesis_tables, _words,
                            orbit_cycle, orbit_set, parse_rational)


def F(v):
    return Fraction(v)


class TestFiniteMetric:
    def test_uniform(self):
        m = gm.FiniteMetric.uniform(3)
        assert m.size == 3
        assert m.d[0][1] == 1 and m.d[2][2] == 0

    def test_asymmetric_rejected(self):
        rows = [[F(0), F(1)], [F(2), F(0)]]
        with pytest.raises(gm.ParameterError):
            gm.FiniteMetric.from_rows(rows)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(gm.ParameterError):
            gm.FiniteMetric.from_rows([[F(1)]])

    def test_zero_off_diagonal_rejected(self):
        rows = [[F(0), F(0)], [F(0), F(0)]]
        with pytest.raises(gm.ParameterError):
            gm.FiniteMetric.from_rows(rows)

    def test_triangle_violation_rejected(self):
        rows = [[F(0), F(1), F(5)],
                [F(1), F(0), F(1)],
                [F(5), F(1), F(0)]]
        with pytest.raises(gm.ParameterError):
            gm.FiniteMetric.from_rows(rows)

    @pytest.mark.parametrize("eps", [F(0), Fraction(1, 10 ** 30)], ids=["int64", "big-ints"])
    def test_triangle_first_failure_in_c_order(self, eps):
        # (0,3) fails via 1 and, by a wider margin, via 2; (3,0) fails too
        rows = [[F(0), 1 + eps, F("1/2"), F(5)],
                [1 + eps, F(0), F(1), F(2)],
                [F("1/2"), F(1), F(0), F(1)],
                [F(5), F(2), F(1), F(0)]]
        with pytest.raises(gm.ParameterError, match=r"fails at \(0,3\) via 1$"):
            gm.FiniteMetric.from_rows(rows)

    def test_loader_roundtrip(self, tmp_path):
        p = tmp_path / "metric.txt"
        p.write_text("3\n0 1 3/2\n1 0 2\n3/2 2 0\n")
        m = gm.load_metric_table(p)
        assert m.size == 3
        assert m.d[0][2] == F("3/2")

    def test_loader_bad_count(self, tmp_path):
        p = tmp_path / "metric.txt"
        p.write_text("2\n0 1\n")
        with pytest.raises(gm.ParameterError):
            gm.load_metric_table(p)

    def test_loader_counts_entries_before_parsing_any(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("gmetric.oracle.parse_rational", calls.append)
        p = tmp_path / "metric.txt"
        p.write_text("2\n" + "123456789/987654321 " * 10 ** 5)
        with pytest.raises(gm.ParameterError, match="^expected 4 entries, found 100000$"):
            gm.load_metric_table(p)
        assert calls == []

    def test_loader_memory_does_not_grow_with_the_file(self, tmp_path):
        # the padded file is about 4 MB; all its tokens would take several times that
        p = tmp_path / "metric.txt"
        p.write_text("2\n" + "123456789/987654321 " * 2 * 10 ** 5)
        tracemalloc.start()
        try:
            with pytest.raises(gm.ParameterError, match="^expected 4 entries, found 200000$"):
                gm.load_metric_table(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_chunked_words_split_as_str_split(self, size):
        rng = np.random.default_rng(size)
        alphabet = ["a", "1", "/", " ", "\n", "\t", "\u3000", "\x1c", "\u00e9"]
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 20))))
            assert list(_words(io.StringIO(text), size)) == text.split(), repr(text)

    def test_loader_empty(self, tmp_path):
        p = tmp_path / "metric.txt"
        p.write_text(" \n")
        with pytest.raises(gm.ParameterError, match="empty metric table"):
            gm.load_metric_table(p)


class TestParseRational:
    """Strings up to RATIONAL_MAX_DIGITS digits per numerator, denominator and
    exponent parse as Fraction does; longer ones are a ValueError."""

    N = RATIONAL_MAX_DIGITS

    @pytest.mark.parametrize("text", [
        "9" * N, "1/" + "7" * N, "-" + "3" * N + "/" + "7" * N, "0." + "1" * (N - 1),
        f"9e-{N}", f"2.5E+{N}", " 3/4 ", "1_000", "900000000000000000000000000001/10" + "0" * 29,
    ], ids=["numerator", "denominator", "both", "decimal", "exponent-neg", "exponent-pos",
            "spaces", "underscore", "30-digit-denominator"])
    def test_within_limit_equals_fraction(self, text):
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize("text", [
        "9" * (N + 1), "1/" + "7" * (N + 1), "0." + "1" * N, f"9e-{N + 1}", f"9E{N + 1}",
        "9e-100000001", "1e" + "9" * 5000,
    ], ids=["numerator", "denominator", "decimal", "exponent-neg", "exponent-pos",
            "exponent-huge", "exponent-digits"])
    def test_past_limit_refused(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["abc", "1/0", "1e", "1e5/3", "nan"])
    def test_malformed_as_fraction(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(text)


class TestBuildGMetric:
    def test_uniform_max_values(self):
        sp = gm.build_gmetric(gm.FiniteMetric.uniform(3), "max")
        for i, j, k in product(range(3), repeat=3):
            want = F(0) if i == j == k else F(1)
            assert gm.eval_g(sp, i, j, k) == want

    def test_uniform_perimeter_values(self):
        sp = gm.build_gmetric(gm.FiniteMetric.uniform(3), "perimeter")
        for i, j, k in product(range(3), repeat=3):
            distinct = len({i, j, k})
            want = {1: F(0), 2: F(2), 3: F(3)}[distinct]
            assert gm.eval_g(sp, i, j, k) == want

    def test_single_point_space(self):
        sp = gm.build_gmetric(gm.FiniteMetric.uniform(1), "max")
        assert gm.eval_g(sp, 0, 0, 0) == 0

    def test_both_constructions_pass_axioms(self):
        metric = gm.FiniteMetric.from_rows([[F(0), F(1), F(2)],
                                            [F(1), F(0), F("3/2")],
                                            [F(2), F("3/2"), F(0)]])
        for construction in ("max", "perimeter"):
            sp = gm.build_gmetric(metric, construction)
            assert gm.exhaustive_axiom_check(sp).all_pass()
            assert gm.check_symmetry(sp, list(range(3))).status == "PASS"

    def test_max_recovers_metric(self):
        metric = gm.FiniteMetric.from_rows([[F(0), F(3)], [F(3), F(0)]])
        sp = gm.build_gmetric(metric, "max")
        assert gm.eval_g(sp, 0, 1, 1) == metric.d[0][1]

    def test_unknown_construction(self):
        with pytest.raises(gm.ParameterError):
            gm.build_gmetric(gm.FiniteMetric.uniform(2), "sum")


class TestEnumeration:
    @pytest.mark.parametrize("m,count", [(2, 4), (3, 27), (4, 256)])
    def test_counts(self, m, count):
        maps = list(gm.enumerate_self_maps(m))
        assert len(maps) == count
        assert len(set(maps)) == count
        assert maps == sorted(maps)  # lexicographic emission

    def test_cap(self):
        with pytest.raises(gm.CapExceededError):
            gm.enumerate_self_maps(6)
        assert sum(1 for _ in gm.enumerate_self_maps(6, cap=6)) == 46656


class TestOrbitHelpers:
    def test_cycle_detection(self):
        table = (1, 2, 0, 3)  # 3-cycle plus a fixed point
        mu, cycle = orbit_cycle(table, 0)
        assert mu == 0 and sorted(cycle) == [0, 1, 2]
        assert orbit_cycle(table, 3) == (0, (3,))
        assert len(orbit_cycle(table, 0)[1]) != 1
        steps, cycle = orbit_cycle(table, 3)
        assert len(cycle) == 1 and steps == 0

    def test_orbit_set(self):
        table = (1, 2, 2, 0)
        assert orbit_set(table, 0) == (0, 1, 2)
        assert orbit_set(table, 3) == (3, 0, 1, 2)


class TestTheoremChecks:
    def test_extension_third_condition_uniform_four(self):
        sp = catalog.space_finite_uniform(4)
        rep = gm.exhaustive_theorem_check(sp, "THM-2.12", {"delta": "0.9"})
        assert rep.maps_total == 256
        assert rep.counterexamples == []
        assert rep.consistent()
        # on the uniform space the condition forces one-step idempotence,
        # counted independently here
        idempotents = [t for t in product(range(4), repeat=4)
                       if all(t[t[i]] == t[i] for i in range(4))]
        assert rep.maps_satisfying_hypothesis == len(idempotents) == 41
        for t in idempotents:
            for start in range(4):
                steps, cycle = orbit_cycle(t, start)
                assert len(cycle) == 1 and steps <= 4

    def test_three_cycle_permutations_fail_hypothesis(self):
        sp = catalog.space_finite_uniform(4)
        smap_space = sp
        delta = F("9/10")
        # all permutations of {0..3} containing a 3-cycle
        three_cycles = []
        for t in product(range(4), repeat=4):
            if len(set(t)) != 4:
                continue
            lengths = {len(orbit_cycle(t, s)[1]) for s in range(4)}
            if 3 in lengths:
                three_cycles.append(t)
        assert len(three_cycles) == 8
        for t in three_cycles:
            smap = gm.table_self_map(smap_space, t)
            # brute force: some orbit-set triple violates the condition
            violated = False
            for start in range(4):
                pts = orbit_set(t, start)
                for x, y, z in product(pts, repeat=3):
                    out = gm.eval_extension(sp, smap, x, y, z, delta=delta)
                    if not out.any_holds:
                        violated = True
                        break
                if violated:
                    break
            assert violated

    def test_strict_q_condition_uniform_three(self):
        sp = catalog.space_finite_uniform(3)
        rep = gm.exhaustive_theorem_check(sp, "THM-2.2", {"q": "1/2"})
        assert rep.maps_total == 27
        assert rep.counterexamples == []
        assert rep.consistent()
        # no injective map on the uniform space satisfies a strict q < 1
        # condition: for x != y the left side equals the majorant
        assert rep.maps_satisfying_hypothesis == 0

    def test_unit_condition_runs(self):
        sp = catalog.space_finite_uniform(3)
        rep = gm.exhaustive_theorem_check(sp, "THM-2.5")
        assert rep.consistent()
        assert rep.counterexamples == []

    def test_gauge_condition_runs(self):
        sp = catalog.space_finite_uniform(3)
        rep = gm.exhaustive_theorem_check(
            sp, "THM-2.10", {"gauge": catalog.get_gauge("ratio1")})
        assert rep.consistent()
        assert rep.counterexamples == []

    def test_orbit_scope_accepts_more_maps(self):
        # restricting the quantifier to orbit triples can only weaken the
        # hypothesis, never strengthen it
        metric = gm.FiniteMetric.from_rows([[F(0), F(4), F(4)],
                                            [F(4), F(0), F(1)],
                                            [F(4), F(1), F(0)]])
        sp = gm.build_gmetric(metric, "max")
        wide = gm.exhaustive_theorem_check(sp, "THM-2.2", {"q": "9/10"})
        narrow = gm.exhaustive_theorem_check(sp, "THM-2.2",
                                             {"q": "9/10", "scope": "orbit"})
        assert narrow.maps_satisfying_hypothesis >= wide.maps_satisfying_hypothesis
        assert narrow.counterexamples == [] and wide.counterexamples == []

    def test_extension_disjunction_widens_hypothesis(self):
        sp = catalog.space_finite_uniform(4)
        only_iii = gm.exhaustive_theorem_check(sp, "THM-2.12", {"delta": "0.9"})
        all_three = gm.exhaustive_theorem_check(
            sp, "THM-2.12", {"alpha": "2", "beta": "3/5", "delta": "0.9"})
        assert (all_three.maps_satisfying_hypothesis
                >= only_iii.maps_satisfying_hypothesis)
        assert all_three.counterexamples == []
        assert all_three.consistent()

    def test_constant_map_satisfies_extension(self):
        sp = catalog.space_finite_uniform(4)
        smap = gm.table_self_map(sp, (2, 2, 2, 2))
        out = gm.eval_extension(sp, smap, 2, 2, 2, delta=F(0))
        assert out.iii.status == "VACUOUS"
        assert out.any_holds

    def test_requires_exact_space(self):
        sp = catalog.space_absmax()
        with pytest.raises(gm.ParameterError):
            gm.exhaustive_theorem_check(sp, "THM-2.2", {"q": "1/2"})

    def test_cap_refused_before_any_triple_is_listed(self, monkeypatch):
        # a carrier past the cap must not first decide any of its triples
        def decided(*args):
            raise AssertionError("a triple decided before the cap check")

        monkeypatch.setattr("gmetric.oracle._decider", decided)
        for theorem, params in (("THM-2.2", {"q": "1/2"}), ("THM-2.12", {"delta": "9/10"})):
            with pytest.raises(gm.CapExceededError):
                gm.exhaustive_theorem_check(catalog.space_finite_uniform(6), theorem, params)

    def test_unknown_theorem(self):
        sp = catalog.space_finite_uniform(2)
        with pytest.raises(gm.ParameterError):
            gm.exhaustive_theorem_check(sp, "THM-9.9")

    def test_unknown_params_rejected(self):
        sp = catalog.space_finite_uniform(2)
        with pytest.raises(gm.ParameterError):
            gm.exhaustive_theorem_check(sp, "THM-2.2", {"q": "1/2", "zeta": 1})

    def test_extension_needs_some_parameter(self):
        sp = catalog.space_finite_uniform(2)
        with pytest.raises(gm.ParameterError):
            gm.exhaustive_theorem_check(sp, "THM-2.12", {})

    @pytest.mark.parametrize("theorem, params", [
        ("THM-2.12", {"delta": "2"}),
        ("THM-2.12", {"delta": "-1/2"}),
        ("THM-2.12", {"alpha": "1/2", "delta": "1/2"}),
        ("THM-2.12", {"beta": "1"}),
        ("THM-2.2", {}),
        ("THM-2.2", {"q": None}),
        ("THM-2.2", {"q": "3/2"}),
        ("THM-2.10", {}),
        ("THM-2.12", {"alpha": True}),  # bool is an int: True would read as 1
        ("THM-2.12", {"delta": False}),
        ("THM-2.2", {"q": True}),
        # the extension conditions take no weight and fix their own scope
        ("THM-2.12", {"delta": "9/10", "a": catalog.get_aux("constant-1")}),
        ("THM-2.12", {"delta": "9/10", "a": gm.AuxWeight.zero()}),
        ("THM-2.12", {"delta": "9/10", "scope": "orbit"}),
        ("THM-2.12", {"delta": "9/10", "scope": "carrier"}),
    ])
    def test_missing_or_out_of_range_parameter_rejected(self, theorem, params):
        sp = catalog.space_finite_uniform(3)
        with pytest.raises(gm.ParameterError):
            gm.exhaustive_theorem_check(sp, theorem, params)


M4_ROWS = [["0", "1", "3/2", "2"], ["1", "0", "1", "3/2"],
           ["3/2", "1", "0", "1"], ["2", "3/2", "1", "0"]]


class TestOneGValuePerRun:
    """One oracle run evaluates each G value at most once: at most m^3 calls."""

    @pytest.mark.parametrize("theorem, params", [
        ("THM-2.2", {"q": "1/2", "a": catalog.get_aux("constant-3")}),
        ("THM-2.2", {"q": "9/10", "scope": "orbit"}),
        ("THM-2.5", {"a": catalog.get_aux("constant-3")}),
        ("THM-2.10", {"gauge": catalog.get_gauge("half"), "a": catalog.get_aux("constant-3")}),
        ("THM-2.12", {"alpha": "2", "beta": "3/4", "delta": "9/10"}),
    ])
    def test_each_g_value_once(self, theorem, params):
        base = gm.build_gmetric(gm.FiniteMetric.from_rows(M4_ROWS), "perimeter")
        calls = Counter()

        def g(*triple):
            calls[triple] += 1
            return base.g(*triple)

        rep = gm.exhaustive_theorem_check(dataclasses.replace(base, g=g), theorem, params)
        assert rep.maps_satisfying_hypothesis > 0
        assert max(calls.values()) == 1
        assert sum(calls.values()) <= 4 ** 3


def _condition_triples(m: int, table=None):
    """The triples a majorant condition is quantified over, each once, x == y
    left out: every carrier triple, or with a map table every triple of each
    orbit set {a, Ta, T^2 a, ...}, start by start."""
    point_sets = [range(m)] if table is None else (orbit_set(table, a) for a in range(m))
    seen = set()
    for pts in point_sets:
        for t in product(pts, repeat=3):
            if t[0] != t[1] and t not in seen:
                seen.add(t)
                yield t


def _orbit_triples(table):
    """Every triple of each orbit set of ``table``, x == y included, each once."""
    return dict.fromkeys(t for a in range(len(table))
                         for t in product(orbit_set(table, a), repeat=3))


def _reference_tables(ctx, specs, m, scope):
    """The reference for ``_hypothesis_tables``, with its signature: each
    permutation (a majorant condition) or each of the m^m tables (the
    extension conditions, over orbit sets) in lexicographic order, decided
    from scratch on Fractions one triple at a time, with the first start
    whose orbit ends in a cycle longer than 1, or None, found by iterating
    the table from each start in turn."""
    if specs[0].id in MAJORANT_IDS:
        tables = permutations(range(m))
        carrier = list(_condition_triples(m))
        triples_of = ((lambda t: _condition_triples(m, t)) if scope == "orbit"
                      else (lambda t: carrier))
    else:
        tables, triples_of = product(range(m), repeat=m), _orbit_triples
    for table in tables:
        if all(any(_eval_spec(ctx, spec, *t, *(table[p] for p in t)).holds for spec in specs)
               for t in triples_of(table)):
            yield table, next((a for a in range(m) if len(orbit_cycle(table, a)[1]) != 1),
                              None)


def _run(monkeypatch, search, space, theorem, params, cap):
    """(the sorted (table, bad start) pairs, the rendered report) of one
    theorem check whose hypothesis ``search`` decides."""
    met = []

    def recording(*args):
        for found in search(*args):
            met.append(found)
            yield found  # the check decides its conclusion before the next

    with monkeypatch.context() as patch:
        patch.setattr("gmetric.oracle._hypothesis_tables", recording)
        report = gm.exhaustive_theorem_check(space, theorem, params, cap=cap)
    return sorted(met), gm.reports.render_report(gm.reports.theorem_report_dict(report))


def _both(monkeypatch, space, theorem, params, cap=DEFAULT_MAP_CAP):
    """The search's and the reference loop's run, which must be equal."""
    fast = _run(monkeypatch, _hypothesis_tables, space, theorem, params, cap)
    reference = _run(monkeypatch, _reference_tables, space, theorem, params, cap)
    assert fast == reference, (theorem, params)
    return json.loads(fast[1])


def _signed_space(seed: int, m: int):
    """A symmetric exact space whose G values are drawn from -2..2; not a
    G-metric, so maps with long cycles can pass a hypothesis."""
    rng = np.random.default_rng(seed)
    values = {t: F(int(rng.integers(-2, 3)))
              for t in product(range(m), repeat=3) if list(t) == sorted(t)}
    return gm.GMetricSpace(carrier=gm.FiniteCarrier(m), g=lambda *t: values[tuple(sorted(t))],
                           arithmetic="exact", symmetric_claimed=True)


def _shapes(report) -> set:
    """The orbit shapes of a report's non-convergent counterexamples: each
    witness cycle length, "tail" when the witness start lies off its cycle,
    and "merge" when a point off the witness orbit reaches the same cycle
    (a later start merging into the earlier failing orbit)."""
    shapes = set()
    for c in report["counterexamples"]:
        table, witness = c["map"], c["witness"]
        if "cycle" not in witness:
            continue
        orbit, cycle = orbit_set(table, witness["start"]), set(witness["cycle"])
        shapes.add(len(cycle))
        if witness["start"] not in cycle:
            shapes.add("tail")
        if any(b not in orbit and set(orbit_cycle(table, b)[1]) == cycle
               for b in range(len(table))):
            shapes.add("merge")
    return shapes


def _majorant_cases(qs, weights):
    """Every majorant theorem, weight and scope; THM-2.2 at each q and
    THM-2.10 at each catalog gauge."""
    hypotheses = ([("THM-2.2", {"q": q}) for q in qs] + [("THM-2.5", {})]
                  + [("THM-2.10", {"gauge": catalog.get_gauge(name)})
                     for name in ("half", "ratio1", "identity-diag")])
    return [(theorem, {**params, "a": a, "scope": scope})
            for theorem, params in hypotheses for a in weights
            for scope in ("carrier", "orbit")]


class TestOrbitPathSearch:
    """The orbit-path search passes the same tables as the per-table Fraction
    loop for every theorem, in its own order; the check sorts the
    counterexamples, so oracle.json and its counterexample order are those
    of the one-triple-at-a-time reading."""

    EXTENSION = [{"alpha": F(2)}, {"beta": F("3/4")}, {"delta": F("9/10")},
                 {"alpha": F("5/2"), "beta": F("2/3"), "delta": F("1/2")},
                 {"alpha": F(1), "delta": F(0)}, {"beta": F("1/2"), "delta": F("3/4")},
                 {"alpha": F("11/4"), "beta": F("7/8")}]
    WEIGHTS = [catalog.get_aux(name) for name in ("zero", "constant-3", "reciprocal-cap-2")]
    MAJORANT = _majorant_cases(["1/2", "9/10"], WEIGHTS)
    TINY = Fraction(1, 10 ** 30)
    BIG_EXTENSION = [{"alpha": 2 + TINY}, {"beta": Fraction(3, 4) + TINY},
                     {"delta": Fraction(9, 10) + TINY},
                     {"alpha": Fraction(5, 2) + TINY, "beta": Fraction(2, 3),
                      "delta": Fraction(1, 2) - TINY}]
    BIG_MAJORANT = _majorant_cases(
        [Fraction(1, 2) + TINY, Fraction(9, 10) - TINY],
        [gm.AuxWeight.constant(3 + TINY), gm.AuxWeight.reciprocal_cap(2 - TINY)])

    @pytest.mark.parametrize("seed, metrics, extension, majorant", [
        (20261019, 20, EXTENSION, MAJORANT), (20261020, 8, BIG_EXTENSION, BIG_MAJORANT)],
        ids=["rational", "denominators-10^30"])
    def test_seeded_metrics(self, monkeypatch, seed, metrics, extension, majorant):
        rng = np.random.default_rng(seed)
        passing = violated = 0
        for n in range(metrics):
            metric = gm.random_metric(rng, min_size=2, max_size=5)
            for c, construction in enumerate(("max", "perimeter")):
                # one THM-2.12 case and every third majorant case, so that
                # each case meets several sizes and both constructions
                k = 2 * n + c
                cases = ([("THM-2.12", extension[k % len(extension)])]
                         + majorant[k % 3::3])
                for theorem, params in cases:
                    report = _both(monkeypatch, gm.build_gmetric(metric, construction),
                                   theorem, params)
                    passing += report["maps_satisfying_hypothesis"] > 0
                    violated += bool(report["counterexamples"])
        assert passing > 4 * metrics and violated > metrics

    def test_uniform_and_table(self, monkeypatch):
        for space in (catalog.space_finite_uniform(5),
                      gm.build_gmetric(gm.FiniteMetric.from_rows(M4_ROWS), "perimeter")):
            for theorem, params in [("THM-2.12", {"delta": F("9/10")}),
                                    ("THM-2.2", {"q": "9/10", "a": self.WEIGHTS[1]}),
                                    ("THM-2.10", {"gauge": catalog.get_gauge("identity-diag")})]:
                assert _both(monkeypatch, space, theorem, params)["maps_satisfying_hypothesis"]

    def test_signed_tables(self, monkeypatch):
        # not G-metrics: a zero left side can meet a negative right side,
        # where only the VACUOUS reading lets the triple hold; ratio1 is
        # left out, since it divides by G + 1, which is zero here at G = -1
        cases = [("THM-2.12", p) for p in self.EXTENSION] + [
            c for c in self.MAJORANT if getattr(c[1].get("gauge"), "name", "") != "ratio1"]
        rng = np.random.default_rng(11)
        for n in range(12):
            values = {t: F(int(rng.integers(-2, 3)))
                      for t in product(range(3), repeat=3) if list(t) == sorted(t)}
            space = gm.GMetricSpace(carrier=gm.FiniteCarrier(3),
                                    g=lambda *t, v=values: v[tuple(sorted(t))],
                                    arithmetic="exact", symmetric_claimed=True)
            for k in range(n % 4, len(cases), 4):
                _both(monkeypatch, space, *cases[k])

    @pytest.mark.parametrize("seed", [23, 76, 125])
    def test_signed_cycles_tails_and_merges(self, monkeypatch, seed):
        # passing m = 5 maps with 2- and 3-cycles, orbits that run a tail
        # into their cycle, and later starts that merge into an earlier
        # failing orbit; the search reads the bad start as the orbits close
        report = _both(monkeypatch, _signed_space(seed, 5), "THM-2.12", {"delta": "9/10"})
        assert report["conclusion_holds"] > 0
        assert _shapes(report) >= {2, 3, "tail", "merge"}

    @pytest.mark.parametrize("seed", [5, 8])
    def test_signed_permutations_with_cycles(self, monkeypatch, seed):
        # THM-2.5 over orbit sets: passing permutations with 2- and 3-cycles
        report = _both(monkeypatch, _signed_space(seed, 5), "THM-2.5", {"scope": "orbit"})
        assert {c["violated_clause"] for c in report["counterexamples"]} == {"cluster-not-fixed"}
        assert _shapes(report) >= {2, 3}

    def test_carrier_scope_both_clauses(self, monkeypatch):
        # distance 1 inside {0, 1, 2} and inside {3, 4, 5}, 2 across, so that
        # under identity-diag the passing permutations are isometries; G is
        # 1/2 at (3, 4, 5) in that order only, which leaves the six that fix
        # 3, 4 and 5. A search that skipped the triples with the newly
        # assigned point last would also pass some that move them, such as
        # the swap of 3 and 4. The identity has six fixed points, every
        # other passing map a cycle.
        rows = [[0 if i == j else 1 if i // 3 == j // 3 else 2 for j in range(6)]
                for i in range(6)]
        base = gm.build_gmetric(gm.FiniteMetric.from_rows(rows), "max")
        space = dataclasses.replace(base, g=lambda *t: F("1/2") if t == (3, 4, 5) else base.g(*t))
        report = _both(monkeypatch, space, "THM-2.10",
                       {"gauge": catalog.get_gauge("identity-diag")}, cap=6)
        clauses = Counter(c["violated_clause"] for c in report["counterexamples"])
        assert report["maps_satisfying_hypothesis"] == 6
        assert clauses == {"orbit-not-convergent": 5, "fixed-point-not-unique": 1}
        assert _shapes(report) == {2, 3}

    def test_uniqueness_reads_the_yielded_table(self, monkeypatch):
        # the uniqueness clause reads the images of each passing table while
        # the search is suspended; here only the identity, met first,
        # passes, and a search that then decided its later triples on the
        # identity's images would pass all 120 permutations
        metric = gm.random_metric(np.random.default_rng(7), 4, 5)
        for construction in ("max", "perimeter"):
            report = _both(monkeypatch, gm.build_gmetric(metric, construction), "THM-2.2",
                           {"q": "1/2", "a": self.WEIGHTS[1]})
            assert report["maps_total"] == 3125 and report["maps_satisfying_hypothesis"] == 1

    def test_report_bytes(self, monkeypatch):
        space = gm.build_gmetric(gm.random_metric(np.random.default_rng(5), 5, 5), "max")
        params = {"alpha": "5/2", "beta": "2/3", "delta": "9/10"}
        assert _both(monkeypatch, space, "THM-2.12", params)["maps_satisfying_hypothesis"] > 0

    def test_counterexamples_keep_product_order(self, monkeypatch):
        # a signed table (not a G-metric) whose passing tables include
        # cycles, met by the search out of product order
        space = _signed_space(8, 4)
        rep = _both(monkeypatch, space, "THM-2.12", {"delta": "9/10"})
        tables = [tuple(c["map"]) for c in rep["counterexamples"]]
        assert len(tables) > 1 and tables == sorted(tables)
        met = list(_hypothesis_tables(_EvalContext(space), _extension_specs(delta=F("9/10")),
                                      4, "orbit"))
        assert [t for t, _ in met if t in tables] != tables

    @pytest.mark.parametrize("m, passing", [(6, 1057), (7, 6322)])
    def test_uniform_past_the_default_cap(self, m, passing):
        rep = gm.exhaustive_theorem_check(catalog.space_finite_uniform(m), "THM-2.12",
                                          {"delta": "9/10"}, cap=m)
        assert rep.maps_satisfying_hypothesis == rep.conclusion_holds == passing
        assert rep.counterexamples == []

    def test_every_permutation_past_the_default_cap(self):
        # identity-diag accepts every injective map of a uniform table, so
        # the search meets all 6! permutations; each has a cycle or, the
        # identity, six fixed points
        rep = gm.exhaustive_theorem_check(
            catalog.space_finite_uniform(6), "THM-2.10",
            {"gauge": catalog.get_gauge("identity-diag")}, cap=6)
        assert rep.maps_satisfying_hypothesis == len(rep.counterexamples) == 720
        assert rep.conclusion_holds == 0

    def test_depth_does_not_grow_with_m(self):
        # each point's only passing image is itself, so the search sets all
        # 120 images, one start after another; a search that recursed per
        # assignment would need 120 frames
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            rep = gm.exhaustive_theorem_check(catalog.space_finite_uniform(120), "THM-2.12",
                                              {"beta": Fraction(3, 4) + self.TINY}, cap=120)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.maps_satisfying_hypothesis == rep.conclusion_holds == 1
        assert rep.counterexamples == []


class TestExhaustiveAxioms:
    def test_max_construction_passes(self):
        rng_metric = gm.FiniteMetric.from_rows(
            [[F(0), F("7/4"), F("5/4")],
             [F("7/4"), F(0), F("3/2")],
             [F("5/4"), F("3/2"), F(0)]])
        sp = gm.build_gmetric(rng_metric, "max")
        rep = gm.exhaustive_axiom_check(sp)
        assert rep.all_pass()
        assert rep.mode == "exhaustive"

    def test_float_space_rejected(self):
        with pytest.raises(gm.ParameterError):
            gm.exhaustive_axiom_check(catalog.space_absmax())


class TestRandomMetric:
    def test_seeded_reproducible(self):
        import numpy as np
        a = gm.random_metric(np.random.default_rng(7))
        b = gm.random_metric(np.random.default_rng(7))
        assert a == b
        assert 2 <= a.size <= 6

    def test_entries_bounded(self):
        import numpy as np
        m = gm.random_metric(np.random.default_rng(3))
        for i in range(m.size):
            for j in range(m.size):
                if i != j:
                    assert F(1) <= m.d[i][j] <= F(2)
