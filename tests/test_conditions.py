"""Contractive-condition evaluators, gauges, factors, and certificates."""
import dataclasses
import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

import gmetric as gm
from gmetric import catalog, conditions, sampling
from gmetric.conditions import FAILS, HOLDS_STRICT, VACUOUS, _EvalContext, _eval_spec
from gmetric.spaces import (DEFAULT_TOL, FAIL, HOLDS_WEAK, PASS, ROW_STATUSES, Regime,
                            _first_failure, scaled_form)


def _worst_order(v):
    """The worst list's order of a failing verdict: decreasing violation, then triple."""
    return (-(v.lhs - v.rhs), tuple(p if isinstance(p, tuple) else (p,) for p in v.triple))


@pytest.fixture
def absmax():
    return catalog.space_absmax()


@pytest.fixture
def halving(absmax):
    return catalog.get_map("scale-0.5", absmax)


@pytest.fixture
def moebius(absmax):
    return catalog.get_map("moebius", absmax)


class TestConditionSpec:
    def test_q_required_in_range(self):
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="C-Q")
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="C-Q", q=1.0)
        assert gm.ConditionSpec(id="C-Q", q=0.5).a.kind == "zero"

    def test_gauge_required(self):
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="C-GAUGE")

    def test_extension_ranges(self):
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="EXT-I", alpha=3.0)
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="EXT-II", beta=0.4)
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="EXT-III", delta=1.0)
        assert gm.ConditionSpec(id="EXT-III", delta=0.0).delta == 0.0

    def test_foreign_parameters_rejected(self):
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="C-UNIT", q=0.5)
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="EXT-I", alpha=2.0, delta=0.5)
        with pytest.raises(gm.ParameterError):
            gm.ConditionSpec(id="EXT-III", delta=0.5,
                             a=gm.AuxWeight.zero())


class TestEvalCondition:
    def test_halving_holds_strict(self, absmax, halving):
        spec = gm.ConditionSpec(id="C-Q", q=0.6)
        v = gm.eval_condition(absmax, halving, spec, 1, 2, 2)
        assert v.status == HOLDS_STRICT
        assert v.lhs == pytest.approx(0.5)
        assert v.rhs == pytest.approx(0.6)
        assert v.excluded_terms == ()

    def test_moebius_fails_near_zero(self, absmax, moebius):
        spec = gm.ConditionSpec(id="C-Q", q=0.9)
        v = gm.eval_condition(absmax, moebius, spec, 0.0, 0.05, 0.05)
        assert v.status == FAILS
        assert v.lhs == pytest.approx(0.05 / 1.05, abs=1e-12)
        assert v.rhs == pytest.approx(0.045, abs=1e-12)

    def test_vacuous_at_fixed_image(self, absmax):
        const = catalog.get_map("constant-2", absmax)
        spec = gm.ConditionSpec(id="C-Q", q=0.5)
        v = gm.eval_condition(absmax, const, spec, 1.0, 2.0, 2.0)
        assert v.status == VACUOUS
        assert v.lhs == 0.0

    def test_equal_arguments_rejected(self, absmax, halving):
        spec = gm.ConditionSpec(id="C-Q", q=0.5)
        with pytest.raises(gm.DomainError):
            gm.eval_condition(absmax, halving, spec, 2.0, 2.0, 1.0)

    def test_verdict_recomputable(self, absmax, moebius):
        spec = gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("ratio1"))
        v1 = gm.eval_condition(absmax, moebius, spec, 3.0, 7.0, 11.0)
        v2 = gm.eval_condition(absmax, moebius, spec, *v1.triple)
        assert (v1.status, v1.lhs, v1.rhs) == (v2.status, v2.lhs, v2.rhs)

    def test_third_term_includes_lhs_literally(self, absmax, halving):
        # triple (1, 2, 2): the reciprocal-product term evaluates to exactly 1
        spec = gm.ConditionSpec(id="C-Q", q=0.6)
        v = gm.eval_condition(absmax, halving, spec, 1, 2, 2)
        assert v.rhs == pytest.approx(0.6 * 1.0)

    def test_undefined_third_term_excluded(self):
        # a deliberately broken ternary function makes G(x,y,z) = 0 with x != y,
        # while the squared map keeps the left side positive
        sp = gm.GMetricSpace(carrier=gm.RealCarrier(1),
                             g=lambda x, y, z: abs(x - 2 * y + z),
                             symmetric_claimed=False)
        square = gm.SelfMap(domain=sp.carrier, apply=lambda x: x * x, name="square")
        spec = gm.ConditionSpec(id="C-Q", q=0.9)
        v = gm.eval_condition(sp, square, spec, 1.0, 1.5, 2.0)
        assert v.excluded_terms == ("M3",)
        assert v.lhs > 0
        assert v.status == FAILS  # majorant collapses to q * max(0, 0)

    def test_gauge_condition_argument_order(self, absmax, halving):
        # a gauge reading only its third slot sees the weighted product there
        probe = gm.GaugeFunction(evaluate=lambda t1, t2, t3: t3, name="third-slot")
        spec = gm.ConditionSpec(id="C-GAUGE", h=probe,
                                a=gm.AuxWeight.constant(1.0))
        v = gm.eval_condition(absmax, halving, spec, 1.0, 2.0, 3.0)
        # weighted product: G(Tx,y,z) * G(x,Ty,z) * G(x,y,Tz)
        expected = (gm.eval_g(absmax, 0.5, 2, 3) * gm.eval_g(absmax, 1, 1, 3)
                    * gm.eval_g(absmax, 1, 2, 1.5))
        assert v.rhs == pytest.approx(expected)


class TestEvalExtension:
    def test_halving_third_condition(self, absmax, halving):
        out = gm.eval_extension(absmax, halving, 1, 2, 3, delta=0.6)
        assert out.iii.lhs == pytest.approx(1.0)
        assert out.iii.rhs == pytest.approx(1.2)
        assert out.iii.status == HOLDS_STRICT
        assert out.any_holds

    def test_identity_first_condition_vacuous(self, absmax):
        ident = catalog.get_map("identity", absmax)
        out = gm.eval_extension(absmax, ident, 0.0, 5.0, 9.0, alpha=1.0)
        assert out.i.status == VACUOUS
        assert out.any_holds

    def test_constant_map_fixed_triple(self, absmax):
        const = catalog.get_map("constant-2", absmax)
        out = gm.eval_extension(absmax, const, 2.0, 2.0, 2.0, delta=0.0)
        assert out.iii.status == VACUOUS
        assert out.any_holds

    def test_requires_some_parameter(self, absmax, halving):
        with pytest.raises(gm.ParameterError):
            gm.eval_extension(absmax, halving, 1, 2, 3)

    def test_disabled_conditions_are_none(self, absmax, halving):
        out = gm.eval_extension(absmax, halving, 1, 2, 3, delta=0.5)
        assert out.i is None and out.ii is None


class TestContractionFactor:
    def test_paper_mode_min(self):
        fr = gm.contraction_factor(2, 0.6, 0.5, "paper")
        assert fr.lam == pytest.approx(0.25)
        assert fr.factors["i"] == pytest.approx(0.5)
        assert fr.admissible

    def test_all_zero(self):
        for mode in ("paper", "sound"):
            fr = gm.contraction_factor(1, 0.5, 0, mode)
            assert fr.lam == 0

    def test_sound_mode_flags_large_beta(self):
        fr = gm.contraction_factor(2, 0.8, 0.5, "sound")
        assert not fr.admissible
        assert fr.factors["ii"] == pytest.approx(1.5)
        assert fr.lam == pytest.approx(1.5)

    def test_paper_never_exceeds_sound(self):
        for args in [(1.5, 0.6, 0.3), (2.9, 0.55, 0.99), (1.0, 0.5, 0.0),
                     (2.0, 0.74, 0.7)]:
            p = gm.contraction_factor(*args, mode="paper")
            s = gm.contraction_factor(*args, mode="sound")
            assert p.lam <= s.lam

    def test_range_errors(self):
        with pytest.raises(gm.ParameterError):
            gm.contraction_factor(0.5, 0.6, 0.5)
        with pytest.raises(gm.ParameterError):
            gm.contraction_factor(2, 1.0, 0.5)
        with pytest.raises(gm.ParameterError):
            gm.contraction_factor(2, 0.6, -0.1)
        with pytest.raises(gm.ParameterError):
            gm.contraction_factor(None, 0.6, 0.5)


GRID = [1e-3, 0.1, 1.0, 10.0, 1e3]


class TestGaugeAdmissibility:
    def test_reciprocal_gauge_passes_everything(self):
        r = gm.check_gauge_admissible(catalog.get_gauge("ratio1"), GRID,
                                      n_max=500, thresh=1e-8)
        assert r.monotone.status == PASS
        assert r.diagonal_strict.status == PASS
        assert r.iterates_vanish.status == PASS
        assert r.equivalence_consistent

    def test_reciprocal_iterates_closed_form(self):
        g = catalog.get_gauge("ratio1")
        t = 1.0
        v = t
        for n in range(1, 6):
            v = g.diagonal(v)
            assert v == pytest.approx(t / (1 + n * t), abs=1e-12)

    def test_identity_fails_both_consistently(self):
        r = gm.check_gauge_admissible(catalog.get_gauge("identity-diag"), GRID,
                                      n_max=500, thresh=1e-8)
        assert r.diagonal_strict.status == FAIL
        assert r.iterates_vanish.status == FAIL
        assert r.equivalence_consistent
        assert not r.admissible()

    def test_half_max_passes(self):
        r = gm.check_gauge_admissible(catalog.get_gauge("half"), GRID,
                                      n_max=500, thresh=1e-8)
        assert r.admissible()
        # closed form 2^-n * t reaches the threshold quickly
        hits = r.details["iterates"][1.0]
        assert hits["hit_iteration"] is not None

    def test_decreasing_gauge_fails_monotone(self):
        bad = gm.GaugeFunction(evaluate=lambda a, b, c: 1.0 / (1.0 + a), name="decreasing")
        r = gm.check_gauge_admissible(bad, [0.5, 1.0, 2.0], n_max=50, thresh=1e-8)
        assert r.monotone.status == FAIL

    def test_empty_grid_rejected(self):
        with pytest.raises(gm.ParameterError):
            gm.check_gauge_admissible(catalog.get_gauge("half"), [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "nan", 1e400])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(gm.ParameterError, match="malformed"):
            gm.check_gauge_admissible(catalog.get_gauge("half"), [1.0, bad])

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(gm.ParameterError, match="tol must be finite and nonnegative"):
            gm.check_gauge_admissible(catalog.get_gauge("half"), GRID, tol_base=tol)

    def test_grid_past_the_limit_raises_before_h(self):
        calls = []
        counting = gm.GaugeFunction(evaluate=lambda *args: calls.append(args) or 0.0,
                                    name="counting")
        grid = [1.0 + i for i in range(conditions.GAUGE_GRID_MAX + 1)] + [1.0, 2.0]
        with pytest.raises(gm.ParameterError, match="33 values, limit 32"):
            gm.check_gauge_admissible(counting, grid)
        assert calls == []

    def test_n_max_past_the_limit_raises_before_h(self):
        calls = []
        counting = gm.GaugeFunction(evaluate=lambda *args: calls.append(args) or 0.0,
                                    name="counting")
        with pytest.raises(gm.ParameterError,
                           match=r"^malformed n_max: 1000001 steps, limit 1000000$"):
            gm.check_gauge_admissible(counting, GRID, n_max=conditions.GAUGE_N_MAX + 1)
        assert calls == []
        gm.check_gauge_admissible(counting, [1.0], n_max=conditions.GAUGE_N_MAX)
        assert len(calls) > 1


def _monotone_reference(h, grid, tol):
    """The monotone verdict of a scalar scan: every (slot, lo, hi, u, v) in
    order, with h evaluated at both ends of each comparison."""
    ts, exceeds = sorted(set(map(float, grid))), Regime(False, tol).exceeds

    def failures():
        for slot in range(3):
            for lo_i, lo_t in enumerate(ts):
                for hi_t, u, v in product(ts[lo_i + 1:], ts, ts):
                    a = h.evaluate(*(u, v)[:slot], lo_t, *(u, v)[slot:])
                    b = h.evaluate(*(u, v)[:slot], hi_t, *(u, v)[slot:])
                    if exceeds(a, b):
                        yield (slot, lo_t, hi_t, u, v), (a, b)
    return _first_failure(failures())


NON_MONOTONE_GAUGES = [
    # decreasing in its second argument only
    gm.GaugeFunction(evaluate=lambda a, b, c: a + 1.0 / (1.0 + b) + c, name="falls-in-b"),
    # falls by 1e-14 * a, inside the default tolerance but not inside tol 0,
    # and by a full unit where c passes 5
    gm.GaugeFunction(evaluate=lambda a, b, c: max(a, b) - 1e-14 * a - (c > 5.0),
                     name="near-tie"),
    # exact values, which the float screen does not read
    gm.GaugeFunction(evaluate=lambda a, b, c: Fraction(a) / (1 + Fraction(b)),
                     name="exact-falls-in-b"),
]


class TestGaugeMonotoneScreen:
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
    @pytest.mark.parametrize("gauge", ["ratio1", "half", "identity-diag", "linear-0.9",
                                       "linear-1/2"] + NON_MONOTONE_GAUGES,
                             ids=lambda g: getattr(g, "name", g))
    def test_verdict_and_witness_match_the_scalar_scan(self, gauge, tol):
        h = catalog.get_gauge(gauge) if isinstance(gauge, str) else gauge
        for seed in range(6):
            rng = random.Random(seed)
            grid = [rng.choice((rng.randint(1, 9), 10 ** rng.uniform(-3, 3)))
                    for _ in range(rng.randint(1, 8))]
            rep = gm.check_gauge_admissible(h, grid, n_max=50, tol_base=tol)
            assert rep.monotone == _monotone_reference(h, grid, tol), (seed, grid)

    def test_the_non_monotone_gauges_fail_somewhere(self):
        grid = [0.5, 1.0, 2.0, 6.0]
        assert [_monotone_reference(h, grid, DEFAULT_TOL).status
                for h in NON_MONOTONE_GAUGES] == [FAIL, FAIL, FAIL]
        assert _monotone_reference(NON_MONOTONE_GAUGES[1], grid[:3], DEFAULT_TOL).passed
        assert not _monotone_reference(NON_MONOTONE_GAUGES[1], grid[:3], 0.0).passed

    def test_h_is_evaluated_once_per_off_diagonal_grid_argument(self):
        calls = []
        ratio1 = catalog.get_gauge("ratio1")
        counting = gm.GaugeFunction(evaluate=lambda *args: calls.append(args)
                                    or ratio1.evaluate(*args), name="counting")
        grid = [1.0 + i for i in range(conditions.GAUGE_GRID_MAX)]
        gm.check_gauge_admissible(counting, grid, n_max=5)
        off_diagonal = [args for args in calls if len(set(args)) > 1]
        assert sorted(off_diagonal) == [args for args in product(grid, repeat=3)
                                        if len(set(args)) > 1]


class TestUniqueness:
    def test_halving_first_separation_holds(self, absmax, halving):
        # at x=1: G(0, 0.5, 0.5) = 0.5 < G(1, 1, 0) + G(1, 0.5, 0.5) = 1.5
        rep = gm.check_uniqueness_conditions(absmax, halving, 0.0, [1.0, 2.0, 5.0])
        assert rep.v.status == PASS
        assert rep.checked == 3
        # the second separation telescopes to an equality for shrinking maps
        # on the half-line (x = x/2 + x/2), so strictness fails
        assert rep.vi.status == FAIL

    def test_doubling_second_separation_holds(self, absmax):
        doubling = gm.SelfMap(domain=absmax.carrier, apply=lambda x: 2.0 * x,
                              name="doubling")
        rep = gm.check_uniqueness_conditions(absmax, doubling, 0.0, [1.0, 3.0])
        assert rep.vi.status == PASS   # x < 2x + x strictly
        assert rep.v.status == FAIL    # 2x = x + x exactly

    def test_identity_fails_strictness(self, absmax):
        ident = catalog.get_map("identity", absmax)
        rep = gm.check_uniqueness_conditions(absmax, ident, 0.0, [1.0])
        assert rep.vi.status == FAIL
        assert rep.vi.values == (1.0, 1.0)

    def test_candidate_must_be_fixed(self, absmax, halving):
        with pytest.raises(gm.DomainError):
            gm.check_uniqueness_conditions(absmax, halving, 1.0, [2.0], tol=1e-9)

    def test_candidate_excluded_from_sample(self, absmax, halving):
        rep = gm.check_uniqueness_conditions(absmax, halving, 0.0, [0.0, 1.0])
        assert rep.checked == 1


def _all_fail_peak(space, smap, spec, triples, count) -> int:
    """Peak traced allocation of a certificate on which every triple fails."""
    tracemalloc.start()
    try:
        cert = gm.certify_on_samples(space, smap, spec, triples, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.fails == count and len(cert.worst) == 10
    return peak


class TestCertify:
    def test_moebius_gauge_certificate_clean(self, absmax, moebius):
        spec = gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("ratio1"))
        stream = sampling.triple_stream(absmax, seed=0, lo=0.0, hi=100.0)
        cert = gm.certify_on_samples(absmax, moebius, spec, stream, 2000)
        assert cert.checked == 2000
        assert cert.fails == 0
        assert cert.holds == 2000

    def test_identity_fails_q_condition(self, absmax):
        ident = catalog.get_map("identity", absmax)
        spec = gm.ConditionSpec(id="C-Q", q=0.9)
        stream = sampling.triple_stream(absmax, seed=1, lo=0.0, hi=10.0)
        cert = gm.certify_on_samples(absmax, ident, spec, stream, 500)
        assert cert.fails > 0
        assert cert.worst
        worst = cert.worst[0]
        assert worst.lhs - worst.rhs >= cert.worst[-1].lhs - cert.worst[-1].rhs

    def test_constant_map_all_vacuous(self, absmax):
        const = catalog.get_map("constant-1", absmax)
        spec = gm.ConditionSpec(id="C-Q", q=0.5)
        stream = sampling.triple_stream(absmax, seed=2, lo=0.0, hi=10.0)
        cert = gm.certify_on_samples(absmax, const, spec, stream, 200)
        assert cert.vacuous == 200
        assert cert.fails == 0

    def test_extension_condition_routed(self, absmax, halving):
        spec = gm.ConditionSpec(id="EXT-III", delta=0.9)
        stream = sampling.triple_stream(absmax, seed=3, lo=0.0, hi=10.0)
        cert = gm.certify_on_samples(absmax, halving, spec, stream, 300)
        assert cert.checked == 300
        assert cert.fails == 0

    def test_sampler_must_respect_distinctness(self, absmax):
        ident = catalog.get_map("identity", absmax)
        spec = gm.ConditionSpec(id="C-Q", q=0.5)
        with pytest.raises(gm.DomainError):
            gm.certify_on_samples(absmax, ident, spec,
                                  iter([(1.0, 1.0, 2.0)]), 1)

    def test_worst_list_order_independent(self, absmax):
        ident = catalog.get_map("identity", absmax)
        spec = gm.ConditionSpec(id="C-Q", q=0.9)
        triples = list(islice(
            sampling.triple_stream(absmax, seed=4, lo=0.0, hi=10.0), 400))
        a = gm.certify_on_samples(absmax, ident, spec, iter(triples), 400)
        b = gm.certify_on_samples(absmax, ident, spec, iter(reversed(triples)), 400)
        assert [w.triple for w in a.worst] == [w.triple for w in b.worst]
        assert (a.fails, a.holds, a.vacuous) == (b.fails, b.holds, b.vacuous)

    def test_worst_list_is_the_canonical_head(self, absmax):
        ident = catalog.get_map("identity", absmax)
        spec = gm.ConditionSpec(id="C-Q", q=0.9)
        triples = list(islice(
            sampling.triple_stream(absmax, seed=6, lo=0.0, hi=10.0), 400))
        fails = [v for v in (gm.eval_condition(absmax, ident, spec, *t) for t in triples)
                 if v.status == FAILS]
        fails.sort(key=lambda v: (v.rhs - v.lhs, v.triple))
        for cap in (0, 1, 3, 10):
            cert = gm.certify_on_samples(absmax, ident, spec, iter(triples), 400, worst_cap=cap)
            assert [w.triple for w in cert.worst] == [v.triple for v in fails[:cap]]
        with pytest.raises(gm.ParameterError):
            gm.certify_on_samples(absmax, ident, spec, iter(triples), 400, worst_cap=-1)
        with pytest.raises(gm.ParameterError, match="count must be nonnegative"):
            gm.certify_on_samples(absmax, ident, spec, iter(triples), -1)
        # what operator.index refuses, and past sys.maxsize, before any triple is read
        for count, cap in ((2.5, 10), (10 ** 20, 10), (400, 2.5), (400, None), (400, 10 ** 20)):
            stream = iter(triples)
            with pytest.raises(gm.ParameterError, match="^malformed (count|worst_cap): "):
                gm.certify_on_samples(absmax, ident, spec, stream, count, worst_cap=cap)
            assert next(stream) == triples[0]

    def test_memory_bounded_whatever_the_count(self, absmax):
        # identity under C-UNIT: every triple fails, so every verdict is a
        # candidate for the worst list
        ident = catalog.get_map("identity", absmax)
        spec = gm.ConditionSpec(id="C-UNIT")

        def peak(count):
            triples = ((float(i), i + 0.5, i + 2.0) for i in range(count))
            return _all_fail_peak(absmax, ident, spec, triples, count)

        peak(100)  # first-call allocations
        small = peak(4_000)
        assert peak(40_000) < 2 * small


class TestScalarChunks:
    """The scalar path reads the stream in BLOCK chunks like the batch path."""

    @pytest.fixture(params=["uniform", "random"])
    def space(self, request):
        if request.param == "uniform":  # every violation ties: order by triple alone
            return catalog.space_finite_uniform(8)
        metric = gm.random_metric(np.random.default_rng(3), min_size=8, max_size=8)
        return gm.build_gmetric(metric, "perimeter")

    def test_worst_is_the_head_of_every_failure(self, space):
        # identity under EXT-III: every triple with x != y fails
        ident = gm.table_self_map(space, tuple(range(space.carrier.size)))
        spec = gm.ConditionSpec(id="EXT-III", delta=Fraction(9, 10))
        count = 2 * sampling.BLOCK + 123
        triples = list(islice(sampling.triple_stream(space, seed=1), count))
        fails = sorted((gm.eval_extension(space, ident, *t, delta=spec.delta).iii
                        for t in triples), key=_worst_order)
        tallies = set()
        for cap in (0, 1, 3, 10):
            cert = gm.certify_on_samples(space, ident, spec, iter(triples), count,
                                         worst_cap=cap)
            assert cert.worst == fails[:cap]
            tallies.add((cert.checked, cert.holds_strict, cert.holds_weak, cert.vacuous,
                         cert.fails, cert.excluded_term_count))
        assert tallies == {(count, 0, 0, 0, count, 0)}

    def test_memory_bounded_whatever_the_count(self):
        space = catalog.space_finite_uniform(8)
        ident = gm.table_self_map(space, tuple(range(8)))
        spec = gm.ConditionSpec(id="EXT-III", delta=Fraction(9, 10))

        def peak(count):
            triples = ((i % 8, (i + 1) % 8, 3 * i % 8) for i in range(count))
            return _all_fail_peak(space, ident, spec, triples, count)

        peak(100)  # first-call allocations
        assert peak(40_000) < 2 * peak(4_000)

    @pytest.mark.parametrize("case", ["finite-evicting", "real-scalar"])
    def test_memory_bounded_on_either_scalar_branch(self, case):
        # the 8 triples above only ever hit the verdict memo; here 1584
        # distinct triples overflow it, or a custom weight keeps a real
        # carrier off the batch path
        if case == "finite-evicting":
            space = catalog.space_finite_uniform(12)
            smap = gm.table_self_map(space, tuple(range(12)))
            spec = gm.ConditionSpec(id="EXT-III", delta=Fraction(9, 10))
        else:
            space = catalog.space_absmax()
            smap = catalog.get_map("identity", space)
            spec = gm.ConditionSpec(id="C-UNIT", a=gm.AuxWeight.custom(lambda x, y, z: 0))

        def peak(count):
            return _all_fail_peak(space, smap, spec, sampling.triple_stream(space, seed=5), count)

        peak(100)  # first-call allocations
        assert peak(40_000) < 2 * peak(4_000)

    def test_g_memo_bounded_on_a_large_finite_carrier(self, monkeypatch):
        # finite-uniform-300 has 2.7·10^7 G keys; under a cyclic shift nearly
        # every EXT-III triple is new, and each is decided on the table's
        # scaled integers (ScaledG.ints), so no raw G call fills the G memo,
        # and 2·10^5 triples must not hold more than 2·10^4
        space = catalog.space_finite_uniform(300)
        shift = gm.table_self_map(space, tuple((i + 1) % 300 for i in range(300)))
        spec = gm.ConditionSpec(id="EXT-III", delta=Fraction(9, 10))
        raw_g, raw_g_calls = conditions.raw_g, 0

        def spy(*args):
            nonlocal raw_g_calls
            raw_g_calls += 1
            return raw_g(*args)

        monkeypatch.setattr(conditions, "raw_g", spy)

        def peak(count):
            tracemalloc.start()
            try:
                cert = gm.certify_on_samples(space, shift, spec,
                                             sampling.triple_stream(space, seed=1), count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cert.checked == count
            return peak

        # first-call allocations, over a few chunks: without a G memo, the
        # tuple free lists they fill are nearly half of a first run's peak
        peak(4 * sampling.BLOCK)
        assert peak(200_000) < 1.2 * peak(20_000)
        assert raw_g_calls == 0

    def test_g_memo_bounded_without_an_integer_form(self):
        # the same G on Fractions alone takes the scalar path, whose G_MEMO_MAX
        # LRU is full after about 1.3·10^4 triples
        space = catalog.space_finite_uniform(300)
        space = dataclasses.replace(space, g=space.g.fraction)
        assert scaled_form(space) is None
        shift = gm.table_self_map(space, tuple((i + 1) % 300 for i in range(300)))
        spec = gm.ConditionSpec(id="EXT-III", delta=Fraction(9, 10))

        def peak(count):
            return _all_fail_peak(space, shift, spec, sampling.triple_stream(space, seed=1), count)

        peak(4 * sampling.BLOCK)
        assert peak(40_000) < 1.2 * peak(20_000)


def _reference_certificates(spec, verdicts, counts, caps):
    """certify_on_samples on each prefix of ``verdicts``, one exact verdict
    per occurrence, all fails sorted: {(count, worst_cap): Certificate}."""
    ranked = sorted((i for i, v in enumerate(verdicts) if v.status == FAILS),
                    key=lambda i: _worst_order(verdicts[i]))
    certs = {}
    for count in counts:
        head = verdicts[:count]
        tally = {s: sum(v.status == s for v in head) for s in ROW_STATUSES}
        fails = [verdicts[i] for i in ranked if i < count]
        for cap in caps:
            certs[count, cap] = gm.Certificate(
                condition_id=spec.id, params=spec.params_label(), checked=count,
                holds_strict=tally[HOLDS_STRICT], holds_weak=tally[HOLDS_WEAK],
                vacuous=tally[VACUOUS], fails=tally[FAILS], worst=fails[:cap],
                excluded_term_count=sum(len(v.excluded_terms) for v in head))
    return certs


class TestFiniteVerdictMemo:
    """On a finite carrier each distinct triple is decided once while it
    stays in the BLOCK-sized memo; nothing else about a certificate moves."""

    SPECS = (gm.ConditionSpec(id="EXT-III", delta=Fraction(9, 10)),
             gm.ConditionSpec(id="EXT-I", alpha=Fraction(3, 2)),
             gm.ConditionSpec(id="C-Q", q=Fraction(9, 10)),
             gm.ConditionSpec(id="C-UNIT"),
             gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("ratio1")),
             gm.ConditionSpec(id="C-Q", q=Fraction(9, 10), a=catalog.get_aux("constant-2")),
             gm.ConditionSpec(id="C-Q", q=Fraction(9, 10),
                              a=catalog.get_aux("reciprocal-cap-2")))

    @pytest.mark.parametrize("name", [
        "uniform-8", "uniform-11",  # 11 * 10 * 11 = 1210 distinct triples > BLOCK
        "perimeter-8", "perimeter-11", "perimeter-13", "max-8", "max-11", "max-13",
        "zeropair-5", "float-7"])
    def test_equals_one_verdict_per_occurrence(self, name):
        kind, m = name.split("-")
        m = int(m)
        if kind == "uniform":
            space = catalog.space_finite_uniform(m)
        elif kind == "zeropair":
            # G is 0 on the triples over {0, 1}: M3 drops out of a majorant
            # wherever such a triple's image has a positive G, so repeats
            # count every excluded term
            space = gm.GMetricSpace(
                carrier=gm.FiniteCarrier(m), arithmetic="exact",
                g=lambda *t: 0 if set(t) <= {0, 1} else Fraction(len(set(t)) + max(t), 3))
        elif kind == "float":
            # float fails ranked by their float rhs - lhs, as _worst_order ranks them
            def d(i, j):
                return 0.0 if i == j else 1.0 + (i * j + i + j) % 7 / 9
            space = gm.GMetricSpace(carrier=gm.FiniteCarrier(m),
                                    g=lambda x, y, z: d(x, y) + d(y, z) + d(z, x))
        else:
            metric = gm.random_metric(np.random.default_rng(m), min_size=m, max_size=m)
            space = gm.build_gmetric(metric, kind)
        tables = (range(m), np.random.default_rng(100 + m).integers(0, m, m).tolist())
        block = sampling.BLOCK
        counts = (1, block - 1, block + 1, 3 * block)
        stream = list(islice(sampling.triple_stream(space, seed=m), 3 * block))
        for smap in (gm.table_self_map(space, t) for t in tables):
            for spec in self.SPECS:
                ctx = _EvalContext(space, smap)
                verdicts = [_eval_spec(ctx, spec, *t, *map(ctx.t, t)) for t in stream]
                expected = _reference_certificates(spec, verdicts, counts, (0, 1, 10))
                for (count, cap), cert in expected.items():
                    assert gm.certify_on_samples(space, smap, spec, iter(stream), count,
                                                 worst_cap=cap) == cert

    @pytest.mark.parametrize("m", [5, 13])
    def test_each_distinct_triple_decided_once(self, monkeypatch, m):
        # m = 5 has 5 * 4 * 5 = 100 admissible triples, all kept; m = 13 draws
        # more distinct triples than BLOCK, so evicted ones are decided again
        space = catalog.space_finite_uniform(m)
        ident = gm.table_self_map(space, range(m))
        calls = []

        def spy(*args):
            calls.append(args[2:5])
            return _eval_spec(*args)

        monkeypatch.setattr(conditions, "_eval_spec", spy)
        count = 3 * sampling.BLOCK
        cert = gm.certify_on_samples(space, ident, self.SPECS[2],
                                     sampling.triple_stream(space, seed=2), count)
        assert cert.checked == cert.fails == count
        drawn = set(islice(sampling.triple_stream(space, seed=2), count))
        assert set(calls) == drawn
        if m == 5:
            assert len(calls) == len(drawn) <= 100
        else:
            assert sampling.BLOCK < len(drawn) < len(calls) < count

    @pytest.mark.parametrize("m", [5, 13])
    def test_integer_path_decides_each_distinct_triple_once(self, monkeypatch, m):
        # the same for EXT-III, decided on the catalog space's scaled integers;
        # its chunks are tallied by distinct triple before the memo is asked
        space = catalog.space_finite_uniform(m)
        ident = gm.table_self_map(space, range(m))
        calls = []

        def spying(ctx, spec):
            decide, unit = decider(ctx, spec)
            return (lambda *key: calls.append(key[:3]) or decide(*key)), unit

        decider = conditions._decider
        monkeypatch.setattr(conditions, "_decider", spying)
        count = 3 * sampling.BLOCK
        cert = gm.certify_on_samples(space, ident, self.SPECS[0],
                                     sampling.triple_stream(space, seed=2), count)
        assert cert.checked == cert.fails == count
        drawn = set(islice(sampling.triple_stream(space, seed=2), count))
        assert set(calls) == drawn
        if m == 5:
            assert len(calls) == len(drawn) <= 100
        else:
            assert sampling.BLOCK < len(drawn) < len(calls) < count

    @pytest.mark.parametrize("alias", [True, np.int64(1)], ids=["True", "int64"])
    def test_memo_hit_still_normalizes(self, alias):
        # (True, 0, 1) hashes like (1, 0, 1); it must raise, not hit the memo
        space = catalog.space_finite_uniform(5)
        ident = gm.table_self_map(space, range(5))
        with pytest.raises(gm.DomainError, match="integer index"):
            gm.certify_on_samples(space, ident, self.SPECS[0],
                                  iter([(1, 0, 1), (alias, 0, 1)]), 2)

    def test_memo_hit_still_checks_distinctness(self):
        space = catalog.space_finite_uniform(5)
        ident = gm.table_self_map(space, range(5))
        triples = [(1, 0, 1), (1, 0, 1), (2, 2, 0), (7, 0, 1)]
        with pytest.raises(gm.DomainError, match="x == y"):  # not the later index 7
            gm.certify_on_samples(space, ident, self.SPECS[2], iter(triples), 4)


class TestScaleCoherence:
    def test_linear_contraction_never_fails_above_ratio(self, absmax):
        c = 0.45
        cmap = catalog.get_map(f"scale-{c}", absmax)
        stream = sampling.triple_stream(absmax, seed=5, lo=0.0, hi=50.0)
        for q in (0.5, 0.7, 0.99):
            spec = gm.ConditionSpec(id="C-Q", q=q)
            for (x, y, _z) in islice(stream, 150):
                v = gm.eval_condition(absmax, cmap, spec, x, y, y)
                assert v.status != FAILS


class TestGapGaugeChain:
    def test_moebius_gaps_follow_diagonal(self, absmax, moebius):
        # successive gaps contract through the diagonal of the certified gauge
        g = catalog.get_gauge("ratio1")
        tr = gm.orbit(absmax, moebius, 1.0, 60)
        for a, b in zip(tr.gaps, tr.gaps[1:]):
            assert b <= g.diagonal(a) + 1e-12 * (1 + a)


class TestAuxWeights:
    def test_reciprocal_cap_respects_bound(self, absmax, halving):
        a = gm.AuxWeight.reciprocal_cap(2.0)
        stream = sampling.triple_stream(absmax, seed=6, lo=0.0, hi=10.0)
        triples = list(islice(stream, 100))
        assert gm.check_aux_bound(absmax, halving, a, triples).status == PASS

    def test_large_constant_violates_bound(self, absmax, halving):
        a = gm.AuxWeight.constant(1e9)
        stream = sampling.triple_stream(absmax, seed=7, lo=1.0, hi=10.0)
        triples = list(islice(stream, 100))
        assert gm.check_aux_bound(absmax, halving, a, triples).status == FAIL

    def test_negative_constant_rejected(self):
        with pytest.raises(gm.ParameterError):
            gm.AuxWeight.constant(-1.0)

    def test_constant_custom_weight_matches_constant(self, absmax, halving):
        # The general weight a(x, y, z) of the M2 term, held constant, gives
        # the verdicts of AuxWeight.constant; the third-slot gauge reads M2.
        third = gm.GaugeFunction(evaluate=lambda t1, t2, t3: t3, name="third-slot")
        triples = [(1.0, 2.0, 3.0), (0.5, 4.0, 0.0), (2.0, 1.0, 1.0), (3.0, 0.0, 7.5)]
        for c in (0.25, 2.0):
            custom = gm.AuxWeight.custom(lambda x, y, z: c)
            for kw in ({"id": "C-Q", "q": 0.5}, {"id": "C-UNIT"},
                       {"id": "C-GAUGE", "h": third}):
                by_custom = gm.ConditionSpec(**kw, a=custom)
                by_constant = gm.ConditionSpec(**kw, a=gm.AuxWeight.constant(c))
                for t in triples:
                    assert (gm.eval_condition(absmax, halving, by_custom, *t)
                            == gm.eval_condition(absmax, halving, by_constant, *t))

    def test_negative_custom_weight_raises(self, absmax, halving):
        spec = gm.ConditionSpec(id="C-UNIT", a=gm.AuxWeight.custom(lambda x, y, z: -1.0))
        with pytest.raises(gm.DomainError):
            gm.eval_condition(absmax, halving, spec, 1.0, 2.0, 3.0)
