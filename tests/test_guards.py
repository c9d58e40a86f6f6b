"""Fail-closed guards that no other test reaches: each input must raise its
own error type with its own message."""
import dataclasses

import pytest

import gmetric as gm
from gmetric import catalog, cli, sampling
from gmetric.spaces import (DEFAULT_TOL, FiniteMetric, RealCarrier, load_metric_table,
                            normalize_point)


def _absmax():
    return catalog.space_absmax()


def _uniform(m):
    return catalog.space_finite_uniform(m)


def _plane():
    return gm.GMetricSpace(carrier=RealCarrier(dim=2), g=lambda p, q, r: 0.0)


def _file(name, text):
    """A call that writes ``text`` to ``name`` in the test's directory and
    gives the path to ``fn``."""
    def wrap(fn):
        def call(tmp):
            path = tmp / name
            path.write_text(text)
            return fn(path)
        return call
    return wrap


def _command(name, cfg):
    """``cli.<name>`` on ``cfg``, with the names main binds before a command."""
    def call(tmp):
        cli._bind(("dynamics", "conditions", "oracle"))
        return getattr(cli, name)(cfg, str(tmp), DEFAULT_TOL)
    return call


def _resolve(name, cfg, *args):
    """``cli.<name>(cfg, ...)``, each further argument made by calling one of ``args``."""
    def call(tmp):
        cli._bind(("conditions",))
        return getattr(cli, name)(cfg, *(arg() for arg in args))
    return call


_HALF = catalog.get_gauge("half")
_C_UNIT = gm.ConditionSpec(id="C-UNIT")
_MOEBIUS = {"space": "absmax", "map": "moebius"}

GUARDS = [
    # spaces
    pytest.param(lambda tmp: normalize_point(RealCarrier(1), (1.0, 2.0)),
                 gm.DomainError, "expected a scalar or 1-tuple", id="point-long-tuple"),
    pytest.param(lambda tmp: normalize_point(RealCarrier(2), (1.0, "a")),
                 gm.DomainError, "non-numeric coordinate", id="point-coordinate"),
    pytest.param(lambda tmp: normalize_point(RealCarrier(hi=1.0), 2.0),
                 gm.DomainError, "above carrier bound", id="point-above"),
    pytest.param(lambda tmp: gm.GMetricSpace(RealCarrier(), g=max, arithmetic="decimal"),
                 gm.ParameterError, "unknown arithmetic mode", id="space-arithmetic"),
    pytest.param(lambda tmp: FiniteMetric(()),
                 gm.ParameterError, "metric table must be nonempty", id="metric-empty"),
    pytest.param(lambda tmp: FiniteMetric.from_rows([[0, 1]]),
                 gm.ParameterError, "metric table must be square", id="metric-square"),
    pytest.param(lambda tmp: FiniteMetric(((0,),)),
                 gm.ParameterError, "metric entries must be Fractions", id="metric-int"),
    pytest.param(lambda tmp: FiniteMetric.uniform(0),
                 gm.ParameterError, "size must be at least 1", id="metric-uniform-size"),
    pytest.param(_file("t.txt", "m 0\n")(load_metric_table),
                 gm.ConfigError, "malformed metric table", id="metric-file-size"),
    pytest.param(lambda tmp: gm.check_symmetry(_absmax(), []),
                 gm.ParameterError, "symmetry check requires a nonempty sample",
                 id="symmetry-sample"),
    pytest.param(lambda tmp: gm.diagnose_sequence(_absmax(), [1.0, 0.5], eps=0.0),
                 gm.ParameterError, "eps must be positive", id="diagnose-eps"),
    # conditions
    pytest.param(lambda tmp: gm.ConditionSpec(id="C-X"),
                 gm.ParameterError, "unknown condition id", id="condition-id"),
    pytest.param(lambda tmp: gm.eval_condition(
        _absmax(), catalog.get_map("identity", catalog.space_perimeter()), _C_UNIT, 0, 1, 2),
                 gm.DomainError, "map domain does not match", id="condition-domain"),
    pytest.param(lambda tmp: gm.eval_condition(
        _absmax(), catalog.get_map("identity", _absmax()),
        gm.ConditionSpec(id="EXT-I", alpha=2), 0, 1, 2),
                 gm.ParameterError, "eval_condition does not handle EXT-I",
                 id="condition-extension"),
    pytest.param(lambda tmp: gm.contraction_factor(2, 0.6, 0.5, mode="tight"),
                 gm.ParameterError, "unknown mode", id="factor-mode"),
    pytest.param(lambda tmp: gm.check_gauge_admissible(_HALF, [1.0, -1.0]),
                 gm.ParameterError, "grid values must be positive", id="gauge-grid-sign"),
    pytest.param(lambda tmp: gm.check_gauge_admissible(_HALF, [1.0], n_max=0),
                 gm.ParameterError, "n_max must be at least 1", id="gauge-n_max"),
    pytest.param(lambda tmp: gm.check_gauge_admissible(_HALF, [1.0], thresh=0.0),
                 gm.ParameterError, "thresh must be positive", id="gauge-thresh"),
    # dynamics
    pytest.param(lambda tmp: gm.solve_picard(
        _absmax(), catalog.get_map("moebius", _absmax()), 1.0, 1e-6, -1),
                 gm.ParameterError, "max_iter must be nonnegative", id="solve-max_iter"),
    pytest.param(lambda tmp: gm.apriori_bound(0.5, -1.0, 3),
                 gm.ParameterError, "initial gap must be nonnegative", id="bound-gap"),
    pytest.param(lambda tmp: gm.apriori_bound(0.5, 1.0, -1),
                 gm.ParameterError, "iteration count must be nonnegative", id="bound-n"),
    pytest.param(lambda tmp: gm.iterations_needed(1.5, 1.0, 1e-6),
                 gm.ParameterError, "q must lie in (0, 1)", id="needed-q"),
    pytest.param(lambda tmp: gm.iterations_needed(0.5, 0.0, 1e-6),
                 gm.ParameterError, "initial gap must be positive", id="needed-gap"),
    pytest.param(lambda tmp: gm.iterations_needed(0.5, 1.0, 0.0),
                 gm.ParameterError, "eps must be positive", id="needed-eps"),
    pytest.param(lambda tmp: gm.probe_injectivity(catalog.get_map("moebius", _absmax()), []),
                 gm.ParameterError, "injectivity probe requires a nonempty sample",
                 id="injectivity-sample"),
    # oracle
    pytest.param(lambda tmp: gm.enumerate_self_maps(0),
                 gm.ParameterError, "size must be at least 1", id="maps-size"),
    pytest.param(lambda tmp: gm.exhaustive_theorem_check(
        dataclasses.replace(_uniform(3), symmetric_claimed=False), "THM-2.5"),
                 gm.DomainError, "requires a symmetric space", id="theorem-symmetry"),
    pytest.param(lambda tmp: gm.exhaustive_theorem_check(_uniform(3), "THM-2.5",
                                                         {"scope": "all"}),
                 gm.ParameterError, "unknown scope", id="theorem-scope"),
    # catalog
    pytest.param(lambda tmp: catalog.get_space("finite-uniform-x"),
                 gm.ConfigError, "bad finite-uniform size", id="catalog-size"),
    pytest.param(lambda tmp: catalog.get_map("constant-9", _uniform(3)),
                 gm.ConfigError, "outside carrier", id="catalog-constant"),
    pytest.param(lambda tmp: catalog.get_map("moebius", _plane()),
                 gm.ConfigError, "needs a one-dimensional carrier", id="catalog-dim"),
    pytest.param(lambda tmp: catalog.get_map("scale--1", _absmax()),
                 gm.ConfigError, "leaves the carrier", id="catalog-scale"),
    pytest.param(lambda tmp: catalog.get_gauge("linear--1"),
                 gm.ConfigError, "linear gauge factor must be nonnegative", id="catalog-linear"),
    # sampling
    pytest.param(lambda tmp: sampling.sample_points(_absmax(), 0),
                 gm.ParameterError, "count must be positive", id="sample-count"),
    pytest.param(lambda tmp: sampling.sample_points(_absmax(), 3, lo=5.0, hi=1.0),
                 gm.ParameterError, "empty sampling range", id="sample-range"),
    pytest.param(lambda tmp: next(sampling.triple_stream(_uniform(1))),
                 gm.ParameterError, "1-point carrier", id="stream-one-point"),
    # cli
    pytest.param(lambda tmp: cli.load_config(tmp / "missing.json"),
                 gm.ConfigError, "cannot read config", id="cli-config-missing"),
    pytest.param(_file("list.json", "[1]")(cli.load_config),
                 gm.ConfigError, "config must be a JSON object", id="cli-config-list"),
    pytest.param(_resolve("resolve_space", {"space": 5}),
                 gm.ConfigError, "space selector must be a name or an object", id="cli-space"),
    pytest.param(_resolve("resolve_map", {}, _absmax),
                 gm.ConfigError, "config is missing a map selector", id="cli-map"),
    pytest.param(_resolve("resolve_condition_spec", {}, _absmax),
                 gm.ConfigError, "config is missing a condition section", id="cli-condition"),
    pytest.param(_resolve("resolve_condition_spec", {"condition": {}}, _absmax),
                 gm.ConfigError, "condition section is missing an id", id="cli-condition-id"),
    pytest.param(_resolve("sampling_settings", {"sampling": {"range": [1.0]}}),
                 gm.ConfigError, "sampling.range must be [lo, hi]", id="cli-range"),
    pytest.param(_resolve("sampling_settings", {"sampling": {"count": 0}}),
                 gm.ConfigError, "sampling.count must be positive", id="cli-count"),
    pytest.param(_command("cmd_solve", _MOEBIUS),
                 gm.ConfigError, "solver section with x0 is required", id="cli-solver"),
    pytest.param(_command("cmd_gauge", {}),
                 gm.ConfigError, "config is missing a gauge name", id="cli-gauge"),
    pytest.param(_command("cmd_oracle", {"space": "finite-uniform-3"}),
                 gm.ConfigError, "theorem section with id is required", id="cli-theorem"),
    pytest.param(_command("cmd_violate", {**_MOEBIUS, "condition": {"id": "C-UNIT"},
                                          "violate": {"q_grid": [0.5]}}),
                 gm.ConfigError, "q_grid only applies to the C-Q condition", id="cli-q_grid"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(tmp_path, call, error, fragment):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert fragment in str(info.value)
