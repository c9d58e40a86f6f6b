"""Core space behavior: evaluation, axiom checking, convergence diagnostics."""
from fractions import Fraction

import pytest

import gmetric as gm
from gmetric import catalog
from gmetric.spaces import FAIL, PASS, SKIPPED, FiniteCarrier, normalize_point


@pytest.fixture
def absmax():
    return catalog.space_absmax()


class TestEvalG:
    def test_max_distance_simple_triple(self, absmax):
        assert gm.eval_g(absmax, 1, 2, 2) == 1.0

    def test_diagonal_is_zero(self, absmax):
        for x in (0.0, 1.0, 3.7, 100.0):
            assert gm.eval_g(absmax, x, x, x) == 0.0

    def test_max_distance_spread_triple(self, absmax):
        assert gm.eval_g(absmax, 0, 1, 3) == 3.0

    def test_deterministic(self, absmax):
        assert gm.eval_g(absmax, 0.3, 7.1, 2.2) == gm.eval_g(absmax, 0.3, 7.1, 2.2)

    def test_wrong_kind_rejected(self, absmax):
        with pytest.raises(gm.DomainError):
            gm.eval_g(absmax, "a", 1, 2)

    def test_nan_rejected(self, absmax):
        with pytest.raises(gm.DomainError):
            gm.eval_g(absmax, float("nan"), 1, 2)

    def test_out_of_bounds_rejected(self, absmax):
        # absmax lives on the nonnegative half-line
        with pytest.raises(gm.DomainError):
            gm.eval_g(absmax, -1.0, 1, 2)

    def test_finite_space_rejects_float(self):
        sp = catalog.space_finite_uniform(3)
        with pytest.raises(gm.DomainError):
            gm.eval_g(sp, 0.5, 1, 2)

    def test_exact_space_needs_finite_carrier(self):
        with pytest.raises(gm.ParameterError):
            gm.GMetricSpace(carrier=gm.RealCarrier(1), g=lambda x, y, z: 0.0,
                            arithmetic="exact")


class TestDerivedMetric:
    def test_simple_pair(self, absmax):
        # G(1,2,2) = 1 and G(1,1,2) = 1
        assert gm.derived_metric(absmax, 1, 2) == 2.0

    def test_zero_on_diagonal(self, absmax):
        assert gm.derived_metric(absmax, 3.7, 3.7) == 0.0

    def test_symmetric_space_identity(self, absmax):
        for x, y in [(0, 1), (2, 3.7), (5, 100)]:
            assert gm.derived_metric(absmax, x, y) == pytest.approx(
                2 * gm.eval_g(absmax, x, y, y), abs=1e-12)


def finite_space_from(fn, m, symmetric=True):
    return gm.GMetricSpace(carrier=FiniteCarrier(m), g=fn, arithmetic="exact",
                           symmetric_claimed=symmetric)


class TestCheckAxioms:
    def test_absolute_max_on_three_points_exhaustive(self):
        d = [[Fraction(abs(i - j)) for j in range(3)] for i in range(3)]
        sp = gm.build_gmetric(gm.FiniteMetric.from_rows(d), "max")
        report = gm.check_axioms(sp, mode="exhaustive")
        assert report.all_pass()
        assert report.mode == "exhaustive"
        assert report.sample_size == 27
        assert report.quadruple_count == 81

    def test_drop_z_fails_positivity(self):
        sp = finite_space_from(lambda i, j, k: Fraction(abs(i - j)), 2,
                               symmetric=False)
        report = gm.check_axioms(sp, mode="exhaustive")
        v = report.verdicts["G2"]
        assert v.status == FAIL
        assert v.witness == (0, 0, 1)
        # witness re-evaluates to the violation
        assert gm.eval_g(sp, *v.witness) == 0

    def test_perimeter_construction_passes(self):
        d = [[Fraction(0), Fraction(2), Fraction(3)],
             [Fraction(2), Fraction(0), Fraction(4)],
             [Fraction(3), Fraction(4), Fraction(0)]]
        sp = gm.build_gmetric(gm.FiniteMetric.from_rows(d), "perimeter")
        assert gm.check_axioms(sp, mode="exhaustive").all_pass()

    def test_sampled_mode_on_reals(self, absmax):
        report = gm.check_axioms(absmax, sample=[0.0, 0.5, 1.0, 2.0, 10.0])
        assert report.all_pass()
        assert report.mode == "sampled"

    def test_exhaustive_requires_finite(self, absmax):
        with pytest.raises(gm.ParameterError):
            gm.check_axioms(absmax, mode="exhaustive")

    def test_empty_sample_rejected(self, absmax):
        with pytest.raises(gm.ParameterError):
            gm.check_axioms(absmax, sample=[])

    def test_symmetry_skipped_when_not_claimed(self):
        sp = catalog.space_drop_z()
        report = gm.check_axioms(sp, sample=[0.0, 0.5, 1.0])
        assert report.verdicts["symmetry"].status == SKIPPED
        assert report.verdicts["G2"].status == FAIL

    def test_negated_entry_fails_with_witness(self):
        # a valid uniform table with one value flipped negative
        def g(i, j, k):
            if (i, j, k) == (1, 1, 0):
                return Fraction(-1)
            return Fraction(0) if i == j == k else Fraction(1)

        sp = finite_space_from(g, 2)
        report = gm.check_axioms(sp, mode="exhaustive")
        assert not report.all_pass()
        failed = report.failures()
        assert failed   # some axiom carries the witness
        for v in failed.values():
            assert v.witness is not None


class TestCheckSymmetry:
    def test_max_distance_symmetric(self, absmax):
        assert gm.check_symmetry(absmax, [0, 1, 5]).status == PASS

    def test_single_point_sample(self, absmax):
        assert gm.check_symmetry(absmax, [2.0]).status == PASS

    def test_skewed_ternary_fails(self):
        sp = gm.GMetricSpace(carrier=gm.RealCarrier(1),
                             g=lambda x, y, z: abs(x - y) + 2 * abs(x - z),
                             symmetric_claimed=False)
        v = gm.check_symmetry(sp, [0.0, 1.0])
        assert v.status == FAIL
        assert v.witness == (0.0, 1.0)
        assert v.values == (3.0, 2.0)


class TestDiagnoseSequence:
    def test_harmonic_prefix_converges(self, absmax):
        prefix = [1.0 / (1 + n) for n in range(10_001)]
        d = gm.diagnose_sequence(absmax, prefix, candidate=0.0, eps=1e-3)
        assert d.all_met()
        assert all(v is not None and v >= 0 for v in d.indicators.values())

    def test_constant_prefix_all_zero(self, absmax):
        d = gm.diagnose_sequence(absmax, [2.0] * 50, candidate=2.0, eps=1e-9)
        assert all(v == 0 for v in d.indicators.values())
        assert d.all_met()

    def test_alternating_prefix_fails_cauchy(self, absmax):
        prefix = [float(n % 2) for n in range(100)]
        d = gm.diagnose_sequence(absmax, prefix, candidate=0.0, eps=0.1)
        assert d.indicators["cauchy_gap"] == 1.0
        assert not d.thresholds_met["cauchy_gap"]

    def test_no_candidate_means_no_thresholds(self, absmax):
        d = gm.diagnose_sequence(absmax, [1.0 / (1 + n) for n in range(100)], eps=10.0)
        assert not any(d.thresholds_met.values())
        assert d.indicators["G_x_xn_xn"] is None

    def test_short_prefix_rejected(self, absmax):
        with pytest.raises(gm.ParameterError):
            gm.diagnose_sequence(absmax, [1.0], candidate=0.0, eps=1.0)

    def test_geometric_prefix_nonvacuous_implication(self, absmax):
        # all indicators end below eps, so every threshold trips, together
        prefix = [2.0 ** -n for n in range(61)]
        eps = 1e-6
        d = gm.diagnose_sequence(absmax, prefix, candidate=0.0, eps=eps)
        assert d.all_met()
        for g_nn, dg in zip(d.tail_traces["G_x_xn_xn"], d.tail_traces["dG_xn_x"]):
            if g_nn <= eps:
                assert dg <= 2 * eps

    def test_symmetric_identity_along_tail(self, absmax):
        prefix = [1.0 / (1 + n) for n in range(500)]
        d = gm.diagnose_sequence(absmax, prefix, candidate=0.0, eps=1e-3)
        for g_nn, dg in zip(d.tail_traces["G_x_xn_xn"], d.tail_traces["dG_xn_x"]):
            assert abs(dg - 2 * g_nn) <= 1e-12 * (1 + abs(dg))


class TestNormalization:
    def test_tuple_unwrap_dim1(self):
        c = gm.RealCarrier(1)
        assert normalize_point(c, (2.5,)) == 2.5
        # an int or Fraction past the float range is refused, not an OverflowError
        with pytest.raises(gm.DomainError, match="malformed"):
            normalize_point(c, Fraction(10**400, 3))
        with pytest.raises(gm.DomainError, match="malformed"):
            gm.eval_g(catalog.space_absmax(), 10**400, 0, 0)

    def test_dim2_tuples(self):
        c = gm.RealCarrier(2)
        assert normalize_point(c, [1, 2]) == (1.0, 2.0)
        with pytest.raises(gm.DomainError):
            normalize_point(c, 1.0)
        with pytest.raises(gm.DomainError, match="malformed"):
            normalize_point(c, (1, 10**400))

    def test_finite_bounds(self):
        c = FiniteCarrier(3)
        assert normalize_point(c, 2) == 2
        with pytest.raises(gm.DomainError):
            normalize_point(c, 3)
        with pytest.raises(gm.DomainError):
            normalize_point(c, True)
