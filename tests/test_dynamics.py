"""Orbits, the Picard solver, error bounds, and the sampled probes."""
import csv
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gmetric as gm
from gmetric import catalog, dynamics
from gmetric.spaces import FAIL, PASS

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def absmax():
    return catalog.space_absmax()


@pytest.fixture
def halving(absmax):
    return catalog.get_map("scale-0.5", absmax)


@pytest.fixture
def moebius(absmax):
    return catalog.get_map("moebius", absmax)


class TestOrbit:
    def test_halving_orbit(self, absmax, halving):
        tr = gm.orbit(absmax, halving, 1.0, 3)
        assert tr.points == [1.0, 0.5, 0.25, 0.125]
        assert tr.gaps == [0.5, 0.25, 0.125]
        assert not tr.exact_fixed

    def test_identity_stops_immediately(self, absmax):
        ident = catalog.get_map("identity", absmax)
        tr = gm.orbit(absmax, ident, 3.7, 100)
        assert tr.exact_fixed
        assert len(tr.points) == 2
        assert tr.gaps == [0.0]

    def test_moebius_closed_form(self, absmax, moebius):
        tr = gm.orbit(absmax, moebius, 1.0, 4)
        expected = [1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5]
        for got, want in zip(tr.points, expected):
            assert got == pytest.approx(want, abs=1e-15)

    def test_gaps_recomputable_bitwise(self, absmax, moebius):
        tr = gm.orbit(absmax, moebius, 0.8, 50)
        for k in range(len(tr.gaps)):
            assert tr.gaps[k] == gm.eval_g(absmax, tr.points[k],
                                           tr.points[k + 1], tr.points[k + 1])

    def test_zero_length_rejected(self, absmax, halving):
        with pytest.raises(gm.ParameterError):
            gm.orbit(absmax, halving, 1.0, 0)

    def test_mismatched_domain_rejected(self, absmax):
        other = gm.SelfMap(domain=gm.RealCarrier(1), apply=lambda x: x)
        with pytest.raises(gm.DomainError):
            gm.orbit(absmax, other, 1.0, 3)


class TestSolvePicard:
    def test_halving_geometric(self, absmax, halving):
        cert = gm.solve_picard(absmax, halving, 1.0, 1e-6, 1000)
        assert abs(cert.candidate) < 1e-5
        assert 18 <= cert.iterations <= 22
        assert cert.convergence_class.kind == "geometric"
        assert cert.convergence_class.ratio == pytest.approx(0.5, abs=1e-9)
        assert cert.stop_reason == "gap-threshold"

    def test_moebius_sublinear(self, absmax, moebius):
        cert = gm.solve_picard(absmax, moebius, 1.0, 1e-6, 5000)
        assert cert.convergence_class.kind == "sublinear"
        assert cert.candidate < 0.01

    def test_identity_exact_fixed(self, absmax):
        ident = catalog.get_map("identity", absmax)
        cert = gm.solve_picard(absmax, ident, 3.0, 1e-6, 100)
        assert cert.candidate == 3.0
        assert cert.residual == 0.0
        assert cert.iterations == 0
        assert cert.stop_reason == "exact-fixed"

    def test_constant_map_one_step(self, absmax):
        const = catalog.get_map("constant-3", absmax)
        cert = gm.solve_picard(absmax, const, 10.0, 1e-9, 100)
        assert cert.candidate == 3.0
        assert cert.iterations <= 1
        assert cert.residual == 0.0

    def test_stagnation_detected(self, absmax):
        # reflection around 2 keeps a constant positive gap
        swing = gm.SelfMap(domain=absmax.carrier, apply=lambda x: 4.0 - x, name="swing")
        cert = gm.solve_picard(absmax, swing, 1.0, 1e-9, 200)
        assert cert.convergence_class.kind == "stagnated"
        assert cert.stop_reason == "max-iter"

    def test_divergence_detected(self, absmax):
        blow = gm.SelfMap(domain=absmax.carrier, apply=lambda x: 2.0 * x + 1.0, name="blow")
        cert = gm.solve_picard(absmax, blow, 1.0, 1e-9, 60)
        assert cert.convergence_class.kind == "diverged"

    def test_certificate_bound_dominates_residual(self, absmax, halving):
        cert = gm.solve_picard(absmax, halving, 1.0, 1e-6, 1000, certified_q=0.5)
        assert cert.apriori_bound is not None
        assert cert.residual <= cert.apriori_bound + 1e-12

    def test_deterministic(self, absmax, moebius):
        a = gm.solve_picard(absmax, moebius, 1.0, 1e-5, 1000)
        b = gm.solve_picard(absmax, moebius, 1.0, 1e-5, 1000)
        assert a == b

    def test_bad_parameters(self, absmax, halving):
        with pytest.raises(gm.ParameterError):
            gm.solve_picard(absmax, halving, 1.0, 0.0, 10)
        with pytest.raises(gm.ParameterError):
            gm.solve_picard(absmax, halving, 1.0, 1e-6, 10, certified_q=1.0)
        with pytest.raises(gm.ParameterError, match="trace_max"):
            gm.solve_picard(absmax, halving, 1.0, 1e-6, 10, trace_max=-1)
        with pytest.raises(gm.ParameterError, match="at most 1000000"):
            gm.solve_picard(absmax, halving, 1.0, 1e-6, 10,
                            trace_max=dynamics.TRACE_MAX_LIMIT + 1)
        with pytest.raises(gm.ParameterError, match="malformed max_iter"):
            gm.solve_picard(absmax, halving, 1.0, 1e-6, dynamics.MAX_ITER_LIMIT + 1)

    def test_trace_max_at_the_limit_runs(self, absmax, halving):
        cert = gm.solve_picard(absmax, halving, 1.0, 1e-6, 1000,
                               trace_max=dynamics.TRACE_MAX_LIMIT)
        assert len(cert.trace) == cert.iterations + 1


    def test_image_outside_carrier_raises_at_that_step(self, absmax):
        calls = []

        def minus_two(x):
            calls.append(x)
            return x - 2.0

        smap = gm.SelfMap(domain=absmax.carrier, apply=minus_two, name="minus-two")
        with pytest.raises(gm.DomainError, match=r"-1\.0 below"):
            gm.solve_picard(absmax, smap, 1.0, 1e-9, 5)
        assert calls == [1.0]

    def test_non_finite_gap_raises_at_that_step(self, halving):
        # G is nan above 1, so the first gaps from x0 = 4 are not finite
        nan_above_one = gm.GMetricSpace(
            carrier=halving.domain, name="nan-above-one",
            g=lambda x, y, z: float("nan") if max(x, y, z) > 1 else abs(x - y))
        with pytest.raises(gm.DomainError, match="non-finite"):
            gm.solve_picard(nan_above_one, halving, 4.0, 1e-9, 50)

    @pytest.mark.parametrize("map_name, x0, max_iter, trace_max", [
        ("moebius", 1.0, 5000, 100_000),
        ("moebius", 1.0, 5000, 7),
        ("scale-0.5", 3.0, 0, 10),
        ("identity", 2.0, 100, 10),
        ("constant-3", 10.0, 100, 0),
    ])
    def test_trace_matches_orbit(self, absmax, map_name, x0, max_iter, trace_max):
        smap = catalog.get_map(map_name, absmax)
        cert = gm.solve_picard(absmax, smap, x0, 1e-6, max_iter, trace_max=trace_max)
        steps = min(max(1, cert.iterations), max(1, trace_max))
        assert cert.trace == gm.orbit(absmax, smap, x0, steps)

class TestAprioriBound:
    def test_known_value(self):
        assert gm.apriori_bound(0.5, 1.0, 4) == pytest.approx(0.125, abs=1e-15)

    def test_zero_initial_gap(self):
        assert gm.apriori_bound(0.7, 0.0, 12) == 0.0

    def test_n_zero(self):
        assert gm.apriori_bound(0.5, 1.0, 0) == pytest.approx(2.0, abs=1e-15)

    def test_q_out_of_range(self):
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(gm.ParameterError):
                gm.apriori_bound(q, 1.0, 3)


class TestIterationsNeeded:
    def test_matches_bound_example(self):
        assert gm.iterations_needed(0.5, 1.0, 0.125) == 4

    def test_already_met(self):
        assert gm.iterations_needed(0.5, 1.0, 2.0) == 0

    def test_slow_contraction(self):
        n = gm.iterations_needed(0.9, 10.0, 1e-6)
        assert n == 175
        assert gm.apriori_bound(0.9, 10.0, n) <= 1e-6
        assert gm.apriori_bound(0.9, 10.0, n - 1) > 1e-6


class TestClusterPoint:
    def test_constant_trace(self, absmax):
        ident = catalog.get_map("identity", absmax)
        tr = gm.orbit(absmax, ident, 5.0, 10)
        assert gm.detect_cluster_point(absmax, tr, tol=1e-9, min_hits=2) == 5.0

    def test_alternating_trace_earliest_wins(self, absmax):
        pts = [float(n % 2) for n in range(20)]
        tr = gm.OrbitTrace(points=pts, gaps=[1.0] * 19)
        assert gm.detect_cluster_point(absmax, tr, tol=0.1, min_hits=3) == 0.0

    def test_harmonic_trace_matches_brute_force(self, absmax, moebius):
        tr = gm.orbit(absmax, moebius, 1.0, 199)
        tol, min_hits = 1e-2, 3
        got = gm.detect_cluster_point(absmax, tr, tol=tol, min_hits=min_hits)
        # independent recount: earliest point with enough close trace entries
        expected = None
        for u in tr.points:
            hits = sum(1 for p in tr.points if abs(u - p) <= tol)
            if hits >= min_hits:
                expected = u
                break
        assert got == expected
        assert sum(1 for p in tr.points if abs(got - p) <= tol) >= min_hits

    def test_none_when_spread(self, absmax):
        tr = gm.OrbitTrace(points=[0.0, 10.0, 20.0, 30.0], gaps=[10.0] * 3)
        assert gm.detect_cluster_point(absmax, tr, tol=0.5, min_hits=2) is None

    def test_min_hits_validated(self, absmax):
        tr = gm.OrbitTrace(points=[0.0, 1.0], gaps=[1.0])
        with pytest.raises(gm.ParameterError):
            gm.detect_cluster_point(absmax, tr, tol=0.5, min_hits=1)


class TestOrbitalContinuityProbe:
    def test_moebius_continuous_at_zero(self, absmax, moebius):
        tr = gm.orbit(absmax, moebius, 1.0, 3000)
        v = gm.probe_orbital_continuity(absmax, moebius, tr, 0.0, tol=1e-3)
        assert v.status == PASS
        assert "evidence" in v.note

    def test_identity_trivially_continuous(self, absmax):
        ident = catalog.get_map("identity", absmax)
        tr = gm.orbit(absmax, ident, 2.0, 5)
        assert gm.probe_orbital_continuity(absmax, ident, tr, 2.0, tol=1e-9).status == PASS

    def test_step_map_discontinuous_at_threshold(self, absmax):
        step = catalog.get_map("step", absmax)
        approach = [1.0 + 2.0 ** -k for k in range(2, 30)]
        v = gm.probe_orbital_continuity(absmax, step, approach, 1.0, tol=1e-2)
        assert v.status == FAIL
        assert v.witness is not None


class TestInjectivityProbe:
    def test_moebius_injective(self, absmax, moebius):
        assert gm.probe_injectivity(moebius, [0.0, 1.0, 2.0, 3.0]).status == PASS

    def test_constant_collides(self, absmax):
        const = catalog.get_map("constant-0", absmax)
        v = gm.probe_injectivity(const, [0.0, 1.0])
        assert v.status == FAIL
        assert v.witness == (0.0, 1.0)

    def test_square_collides_on_sign_pair(self):
        square = gm.SelfMap(domain=gm.RealCarrier(1), apply=lambda x: x * x, name="square")
        v = gm.probe_injectivity(square, [-1.0, 1.0])
        assert v.status == FAIL

    def test_finite_permutation_passes(self):
        perm = gm.table_self_map(catalog.space_finite_uniform(4), (2, 0, 3, 1))
        v = gm.probe_injectivity(perm, [0, 1, 2, 3])
        assert v.status == PASS
        assert v.values == (4,)

    def test_finite_collapse_fails_with_witness(self):
        collapse = gm.table_self_map(catalog.space_finite_uniform(4), (0, 2, 1, 2))
        v = gm.probe_injectivity(collapse, [0, 1, 2, 3])
        assert v.status == FAIL
        assert v.witness == (1, 3)
        assert v.values == (2, 2)

    def test_plane_images_equal_within_tol(self):
        # (x, y) -> (x, 1e-3 * y): the images of (0, 0) and (0, 1) differ by
        # 1e-3, within tol * (1 + 1e-3) at tol 1e-3 but not at the default
        squash = gm.SelfMap(domain=gm.RealCarrier(dim=2),
                            apply=lambda p: (p[0], 1e-3 * p[1]), name="squash")
        sample = [(0.0, 0.0), (0.0, 1.0), (5.0, 0.0)]
        v = gm.probe_injectivity(squash, sample, tol=1e-3)
        assert v.status == FAIL
        assert v.witness == ((0.0, 0.0), (0.0, 1.0))
        assert gm.probe_injectivity(squash, sample).status == PASS

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_bad_tol_rejected(self, moebius, tol):
        with pytest.raises(gm.ParameterError, match="tol must be finite and nonnegative"):
            gm.probe_injectivity(moebius, [0.0, 1.0], tol=tol)


class TestExactDynamics:
    def test_orbit_on_exact_space(self):
        sp = catalog.space_finite_uniform(4)
        smap = gm.table_self_map(sp, (1, 2, 3, 3))
        tr = gm.orbit(sp, smap, 0, 10)
        assert tr.points == [0, 1, 2, 3, 3]
        assert tr.exact_fixed
        from fractions import Fraction
        assert tr.gaps == [Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
        for k, gap in enumerate(tr.gaps):
            assert gap == gm.eval_g(sp, tr.points[k], tr.points[k + 1],
                                    tr.points[k + 1])

    def test_solve_on_exact_space(self):
        sp = catalog.space_finite_uniform(4)
        smap = gm.table_self_map(sp, (1, 2, 3, 3))
        cert = gm.solve_picard(sp, smap, 0, eps_stop=1e-9, max_iter=50)
        assert cert.candidate == 3
        assert cert.residual == 0
        assert cert.stop_reason == "exact-fixed"
        assert cert.trace == gm.orbit(sp, smap, 0, cert.iterations)


class TestTraceCsv:
    def test_header_and_columns(self, tmp_path, absmax, halving):
        tr = gm.orbit(absmax, halving, 1.0, 4)
        path = tmp_path / "trace.csv"
        gm.write_trace_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,x,gap,bound"
        rows = list(csv.reader(lines[1:]))
        assert len(rows) == len(tr.points)
        assert rows[0] == ["0", "1.0", "0.5", ""]
        assert rows[-1][2] == ""  # no gap on the final row

    def test_bound_column_with_certified_q(self, tmp_path, absmax, halving):
        tr = gm.orbit(absmax, halving, 1.0, 4)
        path = tmp_path / "trace.csv"
        gm.write_trace_csv(tr, path, certified_q=0.5)
        rows = list(csv.reader(path.read_text().splitlines()[1:]))
        assert float(rows[0][3]) == pytest.approx(1.0)   # 0.5^0 * 0.5 / 0.5
        assert float(rows[2][3]) == pytest.approx(0.25)


def _seeded_x0(seed):
    return float(np.random.default_rng(seed).uniform(0.5, 2.0))


def _orbit(map_name, seed, n):
    sp = catalog.space_absmax()
    return gm.orbit(sp, catalog.get_map(map_name, sp), _seeded_x0(seed), n)


def _moebius_rows(rows):
    """A moebius orbit trace of ``rows`` rows from a seeded start."""
    if rows == 1:
        return gm.OrbitTrace(points=[_seeded_x0(rows)], gaps=[])
    return _orbit("moebius", rows, rows - 1)


def _solved(map_name, seed, **kwargs):
    sp = catalog.space_absmax()
    kwargs.setdefault("max_iter", 10_000)
    return gm.solve_picard(sp, catalog.get_map(map_name, sp), _seeded_x0(seed), 1e-11,
                           **kwargs).trace


# Float traces of a one-dimensional real carrier.
FLOAT_TRACES = {
    "moebius-seeded": lambda: _solved("moebius", 3, max_iter=5000),
    "scale-0.5-to-zero": lambda: _orbit("scale-0.5", 4, 1200),
    "constant-c": lambda: _solved("constant-2.5", 5),
    "exponent-reprs": lambda: gm.OrbitTrace(
        points=[1e16, 1e-300, 5e-324, 3.162267219925727e-06, 0.0],
        gaps=[1e16, 1e-300, 5e-324, 3.162267219925727e-06]),
    "trace-max-0": lambda: _solved("moebius", 6, trace_max=0),
    "trace-max-1": lambda: _solved("scale-0.5", 7, trace_max=1),
    "exact-fixed": lambda: _solved("identity", 8),
    **{f"rows-{n}": (lambda n=n: _moebius_rows(n)) for n in (1, 4095, 4096, 4097, 10 ** 5)},
}


def _reference_point(p) -> str:
    """A point as the trace CSV writes it, before quoting."""
    if isinstance(p, tuple):
        return ";".join(repr(c) for c in p)
    if isinstance(p, float):
        return repr(p)
    return str(p)


def _reference_bytes(tmp_path, trace, certified_q):
    """What one ``csv.writer`` row at a time writes for ``trace``: the
    reference the chunked writer answers to."""
    path = tmp_path / "reference.csv"
    g0 = trace.gaps[0] if trace.gaps else None
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "x", "gap", "bound"])
        for n, p in enumerate(trace.points):
            gap = repr(trace.gaps[n]) if n < len(trace.gaps) else ""
            if certified_q is not None and g0 is not None:
                bound = repr(gm.apriori_bound(certified_q, g0, n))
            else:
                bound = ""
            w.writerow([n, _reference_point(p), gap, bound])
    return path.read_bytes()


def _written(tmp_path, trace, certified_q):
    """The bytes :func:`write_trace_csv` writes for ``trace``."""
    path = tmp_path / "trace.csv"
    gm.write_trace_csv(trace, path, certified_q)
    return path.read_bytes()


def _exact_trace():
    """The trace of the ``solve-exact`` golden report."""
    rows = [[0, 1, 2, "3/2", "5/4"], [1, 0, "3/2", 2, "7/4"], [2, "3/2", 0, 1, "4/3"],
            ["3/2", 2, 1, 0, "5/3"], ["5/4", "7/4", "4/3", "5/3", 0]]
    sp = gm.build_gmetric(gm.FiniteMetric.from_rows(rows), "max")
    return gm.solve_picard(sp, catalog.get_map("constant-3", sp), 0, 1e-9, 10).trace


# Traces that are not all floats: exact, tuple, int and numpy values.
OTHER_TRACES = {
    "tuple-points": lambda: gm.OrbitTrace(points=[(1.0, 2.0), (0.5, 1.0)], gaps=[1.0]),
    "int-point": lambda: gm.OrbitTrace(points=[1.0, 2], gaps=[1.0]),
    "numpy-gap": lambda: gm.OrbitTrace(points=[1.0, 0.5], gaps=[np.float64(0.5)]),
    "exact": _exact_trace,
    "thousand-digit-denominator": lambda: gm.OrbitTrace(
        points=[0, 1, 1], gaps=[Fraction(1, 10 ** 999 + 7), Fraction(0)]),
    "tuple-3d": lambda: gm.OrbitTrace(
        points=[(1.0, -2.5, 1e-300), (0.5, -1.25, 5e-324), (0.25, 0.0, 0.0)],
        gaps=[2.5, 1.25]),
    "numpy-point-and-gap": lambda: gm.OrbitTrace(
        points=[np.float64(1.5), np.float64(0.75), 0.375],
        gaps=[np.float64(0.75), 0.375]),
    "fraction-coordinates": lambda: gm.OrbitTrace(
        points=[Fraction(1, 2), (Fraction(1, 3), 0.5)], gaps=[Fraction(1, 6)]),
}


class TestTraceWriterPaths:
    @pytest.mark.parametrize("certified_q", [None, 0.5])
    @pytest.mark.parametrize("case", list(FLOAT_TRACES))
    def test_join_path_matches_csv_writer(self, tmp_path, case, certified_q):
        trace = FLOAT_TRACES[case]()
        data = _written(tmp_path, trace, certified_q)
        assert data == _reference_bytes(tmp_path, trace, certified_q)
        assert data.count(b"\r\n") == len(trace) + 1

    @pytest.mark.parametrize("case", [c for c in FLOAT_TRACES if c != "rows-100000"])
    def test_float_trace_with_a_fraction_q(self, tmp_path, case):
        trace = FLOAT_TRACES[case]()
        data = _written(tmp_path, trace, Fraction(1, 3))
        assert data == _reference_bytes(tmp_path, trace, Fraction(1, 3))

    def test_row_counts_and_exponents_are_what_they_claim(self):
        for n in (1, 4095, 4096, 4097, 10 ** 5):
            assert len(FLOAT_TRACES[f"rows-{n}"]()) == n
        assert FLOAT_TRACES["exact-fixed"]().exact_fixed
        halving = FLOAT_TRACES["scale-0.5-to-zero"]()
        assert halving.exact_fixed and 5e-324 in halving.points
        assert len(FLOAT_TRACES["trace-max-0"]()) == len(FLOAT_TRACES["trace-max-1"]()) == 2

    def test_exact_trace_takes_csv_writer_and_matches_golden(self, tmp_path):
        data = _written(tmp_path, _exact_trace(), None)
        assert data == (GOLDEN / "solve-exact" / "trace.csv").read_bytes()

    @pytest.mark.parametrize("case", list(OTHER_TRACES))
    def test_any_non_float_value_takes_csv_writer(self, tmp_path, case):
        """Exact, tuple, int and numpy values are written as csv.writer
        writes them, with no q, a float q and a Fraction q."""
        trace = OTHER_TRACES[case]()
        for certified_q in (None, 0.5, Fraction(1, 3)):
            data = _written(tmp_path, trace, certified_q)
            assert data == _reference_bytes(tmp_path, trace, certified_q)
            assert data.count(b"\r\n") == len(trace) + 1

    def test_fraction_gap_and_bound_are_quoted(self, tmp_path):
        data = _written(tmp_path, _exact_trace(), Fraction(1, 3)).decode()
        assert data.splitlines()[1] == '0,0,"Fraction(3, 2)","Fraction(9, 4)"'

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(9, 10), Fraction(10 ** 30, 10 ** 30 + 1)])
    def test_fraction_q_power_carried_row_to_row(self, tmp_path, q):
        # q^n is a running exact product, so every row still holds
        # repr(apriori_bound(q, g0, n)); 1/2 underflows to 0.0 before the end
        trace = _moebius_rows(1200)
        assert _written(tmp_path, trace, q) == _reference_bytes(tmp_path, trace, q)
        assert _written(tmp_path, trace, Fraction(1, 2)).endswith(b",0.0\r\n")

    def test_fraction_q_out_of_range_still_raises(self, tmp_path):
        with pytest.raises(gm.ParameterError):
            _written(tmp_path, _moebius_rows(3), Fraction(3, 2))

    def test_fraction_q_trace_time_grows_with_the_digits_alone(self, tmp_path):
        # a fresh q ** n per row took 6 s for these 16,384 rows with q = 9/10,
        # against 0.07 s with q = 0.5; carried, about 0.4 s on a 2-core VM
        trace = _moebius_rows(16_384)
        start = time.perf_counter()
        gm.write_trace_csv(trace, tmp_path / "trace.csv", Fraction(9, 10))
        assert time.perf_counter() - start < 2.5


def _writer_peak(tmp_path, trace) -> int:
    """Peak traced allocation of writing ``trace``."""
    tracemalloc.start()
    try:
        gm.write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_trace_writer_memory_is_one_chunk(tmp_path):
    small, large = _moebius_rows(10 ** 4), _moebius_rows(10 ** 5)
    assert _writer_peak(tmp_path, large) < 2 * _writer_peak(tmp_path, small)


class TestTraceHook:
    @pytest.mark.parametrize("trace_max", [0, 1, 10])
    @pytest.mark.parametrize("certified_q", [None, 0.9])
    def test_called_once_with_the_full_trace_when_the_run_goes_on(self, absmax, moebius,
                                                                  trace_max, certified_q):
        seen = []
        cert = gm.solve_picard(absmax, moebius, 1.0, 1e-12, 100, certified_q, trace_max,
                               on_trace=lambda t: seen.append((list(t.points), list(t.gaps))))
        assert cert.iterations == 100
        assert seen == [(cert.trace.points, cert.trace.gaps)]
        assert len(cert.trace.gaps) == max(1, trace_max)
        assert cert == gm.solve_picard(absmax, moebius, 1.0, 1e-12, 100, certified_q, trace_max)

    @pytest.mark.parametrize("map_name, x0, eps_stop, max_iter, trace_max", [
        ("moebius", 1.0, 1e-12, 10, 10),     # the last of max_iter fills the trace
        ("moebius", 1.0, 1e-12, 5, 10),      # max_iter ends before the trace fills
        ("moebius", 1.0, 1e-12, 0, 10),      # no step: the trace is the residual step
        ("scale-0.5", 1.0, 0.125, 100, 3),   # the gap threshold at the step that fills it
        ("scale-0.5", 1.0, 0.25, 100, 3),    # the gap threshold before it
        ("constant-3", 0.0, 1e-12, 100, 5),  # an exact fixed point before it
        ("constant-3", 3.0, 1e-12, 100, 1),  # an exact fixed point at the first step
    ])
    def test_never_called_when_the_run_stops_by_the_fill_step(self, absmax, map_name, x0,
                                                              eps_stop, max_iter, trace_max):
        seen = []
        smap = catalog.get_map(map_name, absmax)
        cert = gm.solve_picard(absmax, smap, x0, eps_stop, max_iter, trace_max=trace_max,
                               on_trace=seen.append)
        assert seen == []
        assert cert == gm.solve_picard(absmax, smap, x0, eps_stop, max_iter, trace_max=trace_max)

    def test_exact_run_that_stops_right_after_the_fill(self):
        space = catalog.space_finite_uniform(5)
        smap = catalog.get_map("constant-2", space)
        seen = []
        cert = gm.solve_picard(space, smap, 0, 1e-6, 100, trace_max=1, on_trace=seen.append)
        assert cert.stop_reason == "exact-fixed" and cert.iterations == 1
        assert [(t.points, t.gaps) for t in seen] == [([0, 2], [Fraction(1)])]

