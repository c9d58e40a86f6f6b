"""Exact finite-space verification: metrics, enumeration, theorem checks."""
import dataclasses
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import gmetric as gm
from gmetric import catalog
from gmetric.conditions import _EvalContext, _extension_specs
from gmetric.oracle import (RATIONAL_MAX_DIGITS, _extension_tables, _hypothesis_tables,
                            orbit_cycle, orbit_set, parse_rational, steps_to_fixed)


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
        assert steps_to_fixed(table, 0) is None
        assert steps_to_fixed(table, 3) == 0

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
                steps = steps_to_fixed(t, start)
                assert steps is not None and steps <= 4

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
        # a carrier past the cap must not first list its m^3 triples
        def listed(*args):
            raise AssertionError("triples listed before the cap check")

        monkeypatch.setattr("gmetric.oracle._condition_triples", listed)
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


def _orbit_triples(table):
    """Every triple of each orbit set of ``table``, x == y included, each once."""
    return dict.fromkeys(t for a in range(len(table))
                         for t in product(orbit_set(table, a), repeat=3))


class TestOrbitPathSearch:
    """THM-2.12's orbit-path search passes the same tables, in the same order,
    as the Fraction loop over orbit-set triples, so oracle.json and its
    counterexample order are those of the one-triple-at-a-time reading."""

    PARAMS = [{"alpha": F(2)}, {"beta": F("3/4")}, {"delta": F("9/10")},
              {"alpha": F("5/2"), "beta": F("2/3"), "delta": F("1/2")},
              {"alpha": F(1), "delta": F(0)}, {"beta": F("1/2"), "delta": F("3/4")},
              {"alpha": F("11/4"), "beta": F("7/8")}]
    TINY = Fraction(1, 10 ** 30)
    BIG_DENOMINATORS = [{"alpha": 2 + TINY}, {"beta": Fraction(3, 4) + TINY},
                        {"delta": Fraction(9, 10) + TINY},
                        {"alpha": Fraction(5, 2) + TINY, "beta": Fraction(2, 3),
                         "delta": Fraction(1, 2) - TINY}]

    @staticmethod
    def _both(space, params):
        m = space.carrier.size
        ctx, specs = _EvalContext(space), _extension_specs(**params)
        fraction = _hypothesis_tables(ctx, specs, product(range(m), repeat=m), _orbit_triples)
        return list(_extension_tables(ctx, specs, m)), list(fraction)

    @pytest.mark.parametrize("seed, metrics, param_sets", [
        (20261019, 20, PARAMS), (20261020, 8, BIG_DENOMINATORS)],
        ids=["rational", "denominators-10^30"])
    def test_seeded_metrics(self, seed, metrics, param_sets):
        rng = np.random.default_rng(seed)
        runs = 0
        for n in range(metrics):
            metric = gm.random_metric(rng, min_size=2, max_size=5)
            for c, construction in enumerate(("max", "perimeter")):
                # every parameter set, each on several sizes and both constructions
                params = param_sets[(2 * n + c) % len(param_sets)]
                fast, reference = self._both(gm.build_gmetric(metric, construction), params)
                assert fast == reference, (n, construction, params)
                runs += bool(reference)
        assert runs > metrics  # most runs pass some tables

    def test_uniform_and_table(self):
        for space in (catalog.space_finite_uniform(5),
                      gm.build_gmetric(gm.FiniteMetric.from_rows(M4_ROWS), "perimeter")):
            fast, reference = self._both(space, {"delta": F("9/10")})
            assert fast == reference and fast

    def test_signed_tables(self):
        # not G-metrics: a zero left side can meet a negative right side,
        # where only the VACUOUS reading lets the triple hold
        rng = np.random.default_rng(11)
        for n in range(6):
            values = {t: F(int(rng.integers(-2, 3)))
                      for t in product(range(3), repeat=3) if list(t) == sorted(t)}
            space = gm.GMetricSpace(carrier=gm.FiniteCarrier(3),
                                    g=lambda *t, v=values: v[tuple(sorted(t))],
                                    arithmetic="exact", symmetric_claimed=True)
            fast, reference = self._both(space, self.PARAMS[n % len(self.PARAMS)])
            assert fast == reference, n

    def test_report_bytes(self, monkeypatch):
        space = gm.build_gmetric(gm.random_metric(np.random.default_rng(5), 5, 5), "max")
        params = {"alpha": "5/2", "beta": "2/3", "delta": "9/10"}
        fast = gm.exhaustive_theorem_check(space, "THM-2.12", params)
        monkeypatch.setattr(  # the Fraction loop over orbit-set triples decides instead
            "gmetric.oracle._extension_tables", lambda ctx, specs, m: _hypothesis_tables(
                ctx, specs, product(range(m), repeat=m), _orbit_triples))
        reference = gm.exhaustive_theorem_check(space, "THM-2.12", params)
        payloads = [gm.reports.render_report(gm.reports.theorem_report_dict(r))
                    for r in (fast, reference)]
        assert payloads[0] == payloads[1]
        assert fast.maps_satisfying_hypothesis > 0

    @pytest.mark.parametrize("m, passing", [(6, 1057), (7, 6322)])
    def test_uniform_past_the_default_cap(self, m, passing):
        rep = gm.exhaustive_theorem_check(catalog.space_finite_uniform(m), "THM-2.12",
                                          {"delta": "9/10"}, cap=m)
        assert rep.maps_satisfying_hypothesis == rep.conclusion_holds == passing
        assert rep.counterexamples == []

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
