"""The numpy batch path of sampled certificates against the scalar path,
and the block sampler against one draw per point."""
import dataclasses
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import gmetric as gm
from gmetric import catalog, reports, sampling
from gmetric.spaces import Regime

BATCH_MAPS = ("identity", "constant-3", "moebius", "step", "scale-0.5", "scale-2")
GAUGES = ("ratio1", "half", "identity-diag", "linear-9/10")
WEIGHTS = ("zero", "constant-1/3", "reciprocal-cap-2")


def _specs():
    for a in WEIGHTS:
        weight = catalog.get_aux(a)
        yield gm.ConditionSpec(id="C-Q", q=0.9, a=weight)
        yield gm.ConditionSpec(id="C-Q", q=Fraction(1, 2), a=weight)
        yield gm.ConditionSpec(id="C-UNIT", a=weight)
        for h in GAUGES:
            yield gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge(h), a=weight)
    yield gm.ConditionSpec(id="EXT-I", alpha=2.0)
    yield gm.ConditionSpec(id="EXT-II", beta=Fraction(2, 3))
    yield gm.ConditionSpec(id="EXT-III", delta=0.9)


SPECS = list(_specs())


def _counting(fn, calls):
    def counted(*args):
        calls.append(1)
        return fn(*args)
    return counted


def _both_paths(space, smap, spec, seed, count, lo=0.0, hi=3.0, worst_cap=10, tol=1e-12):
    """(batch certificate, scalar certificate); asserts that the batch
    path evaluated every triple of the first."""
    batch_calls, scalar_calls = [], []
    batch_space = dataclasses.replace(space, g=_counting(space.g, scalar_calls),
                                      g_batch=_counting(space.g_batch, batch_calls))
    batch = gm.certify_on_samples(batch_space, smap, spec,
                                  sampling.triple_stream(space, seed=seed, lo=lo, hi=hi),
                                  count, tol_base=tol, worst_cap=worst_cap)
    assert batch_calls and not scalar_calls, "a chunk took the scalar path"
    scalar = gm.certify_on_samples(space, dataclasses.replace(smap, apply_batch=None), spec,
                                   sampling.triple_stream(space, seed=seed, lo=lo, hi=hi),
                                   count, tol_base=tol, worst_cap=worst_cap)
    return batch, scalar


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("space_name", ["absmax", "perimeter-r"])
    @pytest.mark.parametrize("map_name", BATCH_MAPS)
    def test_every_condition(self, space_name, map_name):
        space = catalog.get_space(space_name)
        smap = catalog.get_map(map_name, space)
        for i, spec in enumerate(SPECS):
            # tol 0 makes a tie a HOLDS_WEAK and tol 1e-6 widens the weak band
            batch, scalar = _both_paths(space, smap, spec, seed=i % 3, count=250,
                                        tol=(1e-12, 0.0, 1e-6)[i % 3])
            assert reports.certificate_dict(batch) == reports.certificate_dict(scalar), spec
            assert batch == scalar, spec

    @pytest.mark.parametrize("space_name, map_name, spec, lo, hi", [
        ("absmax", "moebius", gm.ConditionSpec(id="C-Q", q=0.9), 0.0, 0.1),
        ("absmax", "scale-2", gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("half"),
                                               a=catalog.get_aux("reciprocal-cap-2")), 0.0, 5.0),
        ("perimeter-r", "step", gm.ConditionSpec(id="EXT-III", delta=0.5), -2.0, 3.0),
        ("perimeter-r", "identity", gm.ConditionSpec(id="C-UNIT",
                                                     a=catalog.get_aux("constant-1/3")), -1.0, 1.0),
    ], ids=["q-moebius", "gauge-scale", "ext-iii-step", "unit-identity"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_several_blocks_with_failures(self, space_name, map_name, spec, lo, hi, seed):
        space = catalog.get_space(space_name)
        smap = catalog.get_map(map_name, space)
        count = 2 * sampling.BLOCK + 123
        for cap in (3, 10):
            batch, scalar = _both_paths(space, smap, spec, seed, count, lo, hi, cap)
            assert batch.fails > 0
            assert reports.certificate_dict(batch) == reports.certificate_dict(scalar)
            assert batch == scalar

    @pytest.mark.parametrize("spec", [gm.ConditionSpec(id="C-Q", q=Fraction(1, 10**400)),
                                      gm.ConditionSpec(id="EXT-III", delta=Fraction(1, 10**400))],
                             ids=["c-q", "ext-iii"])
    def test_factor_that_rounds_to_zero(self, spec):
        # float(q) == 0.0 though q != 0: both paths multiply by 0.0
        space = catalog.space_absmax()
        batch, scalar = _both_paths(space, catalog.get_map("scale-2", space), spec,
                                    seed=1, count=500)
        assert batch.fails == 500
        assert batch == scalar

    def test_ties_at_the_tolerance(self):
        # identity map, h = c * t1: lhs - rhs = (1 - c) * G(x, y, z), which
        # sits on both sides of tau = tol * (1 + |lhs| + |rhs|) for G in [0, 3]
        space = catalog.space_absmax()
        spec = gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("linear-0.999997"))
        batch, scalar = _both_paths(space, catalog.get_map("identity", space), spec,
                                    seed=0, count=3000, tol=1e-6)
        assert 0 < batch.holds_weak and 0 < batch.fails
        assert batch == scalar

    def test_excluded_m3_terms_counted(self):
        # G(x, y, z) * G(Tx, Ty, Tz) underflows to 0 on tiny triples, and with
        # tol 0 their left side is not vacuous, so M3 is dropped
        space = catalog.space_absmax()
        smap = catalog.get_map("identity", space)
        rng = np.random.default_rng(0)
        triples = [tuple(t) for t in rng.uniform(0.0, 1e-170, size=(3000, 3)).tolist()]
        triples += [tuple(t) for t in rng.uniform(0.0, 1.0, size=(3000, 3)).tolist()]
        for spec in (gm.ConditionSpec(id="C-UNIT"),
                     gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("half"))):
            batch, scalar = (gm.certify_on_samples(space, m, spec, iter(triples), len(triples),
                                                   tol_base=0.0)
                             for m in (smap, dataclasses.replace(smap, apply_batch=None)))
            assert batch.excluded_term_count > 0
            assert batch == scalar


def _leaves_carrier_late(space):
    """A map whose image leaves the half-line, at -x, for x < 0.005 only:
    about once in 7000 triples on [0, 100]."""
    return gm.SelfMap(domain=space.carrier,
                      apply=lambda x: -x if x < 0.005 else x / 2,
                      apply_batch=lambda a: np.where(a < 0.005, -a, a / 2))


def _infinite_g_late(x, y, z):
    """Perimeter G, but infinite where a point reaches 99.995."""
    return np.where(np.maximum(np.maximum(x, y), z) < 99.995,
                    abs(x - y) + abs(y - z) + abs(z - x), np.inf)


class TestBatchErrors:
    """A chunk the batch form refuses is re-run through the scalar path,
    which raises the same error at the same triple."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_image_outside_carrier_mid_stream(self, seed):
        space = catalog.space_absmax()
        smap = _leaves_carrier_late(space)
        spec = gm.ConditionSpec(id="C-GAUGE", h=catalog.get_gauge("ratio1"))
        messages = []
        for m in (smap, dataclasses.replace(smap, apply_batch=None)):
            with pytest.raises(gm.DomainError) as err:
                gm.certify_on_samples(space, m, spec,
                                      sampling.triple_stream(space, seed=seed), 10**6)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "below carrier bound" in messages[0]

    def test_non_finite_g_mid_stream(self):
        last_args = []

        def g(x, y, z):
            last_args.append((x, y, z))
            return float(_infinite_g_late(x, y, z))

        scalar = gm.GMetricSpace(carrier=gm.RealCarrier(dim=1), g=g)
        batch = dataclasses.replace(scalar, g_batch=_infinite_g_late)
        smap = catalog.get_map("scale-0.5", scalar)
        spec = gm.ConditionSpec(id="EXT-I", alpha=2)
        failed_at = []
        for space in (batch, scalar):
            with pytest.raises(gm.DomainError, match="non-finite"):
                gm.certify_on_samples(space, smap, spec,
                                      sampling.triple_stream(space, seed=0), 10**6)
            failed_at.append(last_args[-1])
        assert failed_at[0] == failed_at[1]

    def test_equal_points_rejected_by_both_paths(self):
        space = catalog.space_absmax()
        spec = gm.ConditionSpec(id="C-Q", q=0.5)
        triples = [(1.0, 2.0, 3.0)] * 10 + [(1.0, 1.0, 2.0)]
        for smap in (catalog.get_map("identity", space),
                     dataclasses.replace(catalog.get_map("identity", space), apply_batch=None)):
            with pytest.raises(gm.DomainError, match="x == y"):
                gm.certify_on_samples(space, smap, spec, iter(triples), 11)

    @pytest.mark.parametrize("triple", [(1.0, 2.0, float("nan")), (float("inf"), 2.0, 3.0),
                                        (-1.0, 2.0, 3.0)], ids=["nan", "inf", "nan-image"])
    def test_non_finite_point_or_image(self, triple):
        # on the whole line moebius maps -1 to nan; nan compares silently
        space = catalog.space_perimeter()
        spec = gm.ConditionSpec(id="C-UNIT")
        with pytest.raises(gm.DomainError, match="non-finite coordinate"):
            gm.certify_on_samples(space, catalog.get_map("moebius", space), spec,
                                  iter([(0.5, 1.5, 2.5)] * 10 + [triple]), 11)

    def test_non_float_points_take_the_scalar_path(self):
        space = catalog.space_absmax()
        smap = catalog.get_map("moebius", space)
        spec = gm.ConditionSpec(id="C-UNIT")
        mixed = [(1, Fraction(1, 2), 3.0), ((2.0,), 5.0, 0.5)]
        floats = [(1.0, 0.5, 3.0), (2.0, 5.0, 0.5)]
        assert (gm.certify_on_samples(space, smap, spec, iter(mixed), 2)
                == gm.certify_on_samples(space, smap, spec, iter(floats), 2))


class TestBatchMemory:
    def test_peak_bounded_whatever_the_count(self):
        # identity under C-Q: every triple fails and is a worst-list candidate
        space = catalog.space_absmax()
        smap = catalog.get_map("identity", space)
        spec = gm.ConditionSpec(id="C-Q", q=0.9)

        def peak(count):
            stream = sampling.triple_stream(space, seed=0, lo=0.0, hi=1.0)
            tracemalloc.start()
            try:
                cert = gm.certify_on_samples(space, smap, spec, stream, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cert.fails == count and len(cert.worst) == 10
            return peak

        peak(100)  # first-call allocations
        assert peak(40_000) < 2 * peak(4_000)


def _draw_point(rng, carrier, lo, hi):
    if isinstance(carrier, gm.FiniteCarrier):
        return int(rng.integers(0, carrier.size))
    if carrier.dim == 1:
        return float(rng.uniform(lo, hi))
    return tuple(float(v) for v in rng.uniform(lo, hi, size=carrier.dim))


def _scalar_stream(space, seed, lo, hi, tol):
    """The sampler as one draw per point, redrawing a triple with x ~ y."""
    lo, hi = sampling._clip_range(space, lo, hi)
    rng = np.random.default_rng(seed)
    distinct = Regime(space.exact, tol).distinct
    while True:
        x, y, z = (_draw_point(rng, space.carrier, lo, hi) for _ in range(3))
        if distinct(x, y):
            yield (x, y, z)


def _plane():
    return gm.GMetricSpace(carrier=gm.RealCarrier(dim=2),
                           g=lambda p, q, r: max(abs(a - b) for a, b in zip(p, q)))


class TestBlockSampler:
    @pytest.mark.parametrize("space, lo, hi, tol", [
        (catalog.space_absmax(), 0.0, 100.0, 1e-12),
        (catalog.space_perimeter(), -1.0, 1.0, 0.05),
        (_plane(), -2.0, 2.0, 0.01),
        (catalog.space_finite_uniform(2), 0.0, 1.0, 1e-12),
        (catalog.space_finite_uniform(7), 0.0, 1.0, 0.0),
        (dataclasses.replace(catalog.space_finite_uniform(3), arithmetic="float"), 0.0, 1.0, 0.5),
    ], ids=["absmax", "perimeter-redraws", "plane", "finite-2", "finite-7", "finite-float"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stream_equals_one_draw_per_point(self, space, lo, hi, tol, seed):
        n = sampling.BLOCK + 500
        block = list(islice(sampling.triple_stream(space, seed, lo, hi, tol), n))
        scalar = list(islice(_scalar_stream(space, seed, lo, hi, tol), n))
        assert block == scalar
        kinds = {type(c) for t in block for p in t
                 for c in (p if isinstance(p, tuple) else (p,))}
        assert kinds == ({int} if isinstance(space.carrier, gm.FiniteCarrier) else {float})

    @pytest.mark.parametrize("space", [catalog.space_absmax(), _plane(),
                                       catalog.space_finite_uniform(5)],
                             ids=["absmax", "plane", "finite-5"])
    def test_sample_points_equal_one_draw_per_point(self, space):
        lo, hi = sampling._clip_range(space, 0.0, 10.0)
        rng = np.random.default_rng(3)
        expected = [_draw_point(rng, space.carrier, lo, hi) for _ in range(20)]
        assert sampling.sample_points(space, 20, seed=3, lo=0.0, hi=10.0) == expected

    def test_integer_blocks_equal_one_draw_per_point_for_every_small_size(self):
        for m in range(2, 1001):
            space = gm.GMetricSpace(carrier=gm.FiniteCarrier(m), g=lambda i, j, k: 0,
                                    arithmetic="exact")
            rng = np.random.default_rng(m)
            expected = [_draw_point(rng, space.carrier, 0.0, 1.0) for _ in range(12)]
            assert sampling.sample_points(space, 12, seed=m) == expected, m

    @pytest.mark.parametrize("space, calls", [
        (catalog.space_absmax(), 2),
        (catalog.space_finite_uniform(5), None),
    ], ids=["real-blocks", "finite-per-point"])
    def test_generator_calls(self, monkeypatch, space, calls):
        """Real carriers draw a block per Generator call; finite carriers
        draw one index per call, so redraws show in calls per triple."""
        counted = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def uniform(self, *args, **kwargs):
                counted.append(1)
                return self._rng.uniform(*args, **kwargs)

            def integers(self, *args, **kwargs):
                counted.append(1)
                return self._rng.integers(*args, **kwargs)

        make_rng = sampling.make_rng
        monkeypatch.setattr(sampling, "make_rng", lambda seed: Counting(make_rng(seed)))
        n = sampling.BLOCK + 1
        triples = list(islice(sampling.triple_stream(space, seed=4), n))
        scalar = list(islice(_scalar_stream(space, 4, 0.0, 100.0, 1e-12), n))
        assert triples == scalar
        if calls is None:  # three calls per triple tried, x == y ones included
            rng, tried, kept = np.random.default_rng(4), 0, 0
            while kept < n:
                x, y, _ = rng.integers(0, 5, size=3)
                tried, kept = tried + 1, kept + (x != y)
            calls = 3 * tried
            assert tried > n
        assert len(counted) == calls

    @pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (float("nan"), 1.0),
                                        (-1e308, 1e308)])
    def test_non_finite_range_rejected(self, lo, hi):
        space = catalog.space_perimeter()
        with pytest.raises(gm.ParameterError, match="malformed sampling.range"):
            next(sampling.triple_stream(space, lo=lo, hi=hi))
        with pytest.raises(gm.ParameterError, match="malformed sampling.range"):
            sampling.sample_points(space, 3, lo=lo, hi=hi)


class TestTolerance:
    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_regime_rejects(self, tol):
        with pytest.raises(gm.ParameterError, match="tol must be finite and nonnegative"):
            Regime(catalog.space_absmax().exact, tol)

    def test_zero_is_legal(self):
        assert Regime(catalog.space_finite_uniform(3).exact, 0.0).tol == 0.0
        assert Regime(catalog.space_absmax().exact, 0).distinct(1.0, 1.0 + 1e-15)
