"""Command-line behavior: exit codes, report files, config validation."""
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gmetric as gm
from gmetric import catalog
from gmetric.cli import main


def run(tmp_path, command, config, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestCatalog:
    def test_every_space_passes_default_axioms(self):
        for name in ("absmax", "perimeter-r", "finite-uniform-3", "finite-uniform-4"):
            sp = catalog.get_space(name)
            if isinstance(sp.carrier, gm.FiniteCarrier):
                report = gm.check_axioms(sp)
            else:
                report = gm.check_axioms(sp, catalog.standard_sample(sp))
            assert report.all_pass(), name

    def test_unknown_names_rejected(self):
        with pytest.raises(gm.ConfigError):
            catalog.get_space("euclid")
        with pytest.raises(gm.ConfigError):
            catalog.get_map("rotate", catalog.space_absmax())
        with pytest.raises(gm.ConfigError):
            catalog.get_gauge("cubic")
        with pytest.raises(gm.ConfigError):
            catalog.get_aux("affine")

    def test_parameterized_names(self):
        sp = catalog.space_absmax()
        assert catalog.get_map("scale-0.25", sp).apply(8.0) == 2.0
        assert catalog.get_map("constant-3", sp).apply(7.0) == 3.0
        assert catalog.get_gauge("linear-0.9").diagonal(10.0) == pytest.approx(9.0)
        assert catalog.get_space("finite-uniform-5").carrier.size == 5

    def test_real_map_rejected_on_finite_space(self):
        with pytest.raises(gm.ConfigError):
            catalog.get_map("moebius", catalog.space_finite_uniform(3))


class TestAxiomsCommand:
    def test_clean_space_exit_zero(self, tmp_path):
        code, out = run(tmp_path, "axioms", {"space": "absmax"})
        assert code == 0
        payload = read_json(out / "axioms.json")
        assert payload["report"]["all_pass"] is True

    def test_broken_space_exit_one_with_witness(self, tmp_path):
        code, out = run(tmp_path, "axioms", {"space": "drop-z"})
        assert code == 1
        payload = read_json(out / "axioms.json")
        g2 = payload["report"]["verdicts"]["G2"]
        assert g2["status"] == "FAIL"
        assert gm.eval_g(catalog.space_drop_z(), *g2["witness"]) == 0.0

    def test_missing_space_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "axioms", {})
        assert code == 2

    def test_non_string_metric_table_exit_two(self, tmp_path, capsys):
        code, _ = run(tmp_path, "axioms", {"space": {"metric_table": 5}})
        assert code == 2
        assert "needs a metric_table path" in capsys.readouterr().err

    def test_padded_metric_table_exit_two(self, tmp_path, capsys):
        table = tmp_path / "m.txt"
        table.write_text("2\n" + "123456789/987654321 " * 10 ** 5)
        code, _ = run(tmp_path, "axioms", {"space": {"metric_table": str(table)}})
        assert code == 2
        assert "expected 4 entries, found 100000" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "axioms", {"space": "absmax", "speling": 1})
        assert code == 2

    def test_unknown_nested_key_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "condition",
                      {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5, "qq": 1}})
        assert code == 2

    def test_metric_table_space(self, tmp_path):
        table = tmp_path / "m.txt"
        table.write_text("3\n0 1 2\n1 0 3/2\n2 3/2 0\n")
        code, out = run(tmp_path, "axioms",
                        {"space": {"metric_table": str(table), "construction": "max"}})
        assert code == 0
        assert read_json(out / "axioms.json")["report"]["mode"] == "exhaustive"



_MOEBIUS_GAUGE = {"space": "absmax", "map": "moebius",
                  "condition": {"id": "C-GAUGE", "gauge": "ratio1"}}


class TestMalformedValues:
    """A malformed config value is a configuration error (exit 2), never
    a traceback or the violation exit code 1."""

    @pytest.mark.parametrize("command, config", [
        ("condition", {**_MOEBIUS_GAUGE, "sampling": {"count": "abc"}}),
        ("solve", {"space": "absmax", "map": "moebius",
                   "solver": {"x0": 1.0, "eps_stop": "tiny"}}),
        ("solve", {"space": "absmax", "map": "scale-abc", "solver": {"x0": 1.0}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5, "a": "constant-1/0"}}),
        ("axioms", {"space": {"metric_table": "TABLE", "construction": "max"}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": "abc"}}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": {"scales": ["x"]}}),
        ("condition", {**_MOEBIUS_GAUGE, "sampling": 5}),
        ("gauge", {"gauge": "ratio1", "gauge_check": 5}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": 5}),
        ("gauge", {"gauge": "ratio1", "gauge_check": {"grid": 5}}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": {"scales": 5}}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": {"q_grid": 5}}),
        ("condition", {**_MOEBIUS_GAUGE, "sampling": {"count": 10, "seed": -1}}),
        ("gauge", {"gauge": "ratio1", "gauge_check": {"grid": [1.0, "nan"]}}),
        ("gauge", {"gauge": "ratio1", "gauge_check": {"grid": [1.0, float("inf")]}}),
        ("condition", {"space": "perimeter-r", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5},
                       "sampling": {"count": 10, "range": [0, 1e400]}}),
        ("condition", {"space": "perimeter-r", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5},
                       "sampling": {"count": 10, "range": [-1e308, 1e308]}}),
        ("gauge", {"gauge": "linear-1e400"}),
        ("oracle", {"space": "finite-uniform-3", "theorem": {"id": "THM-2.12", "alpha": True}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "EXT-I", "alpha": True}}),
        ("condition", {**_MOEBIUS_GAUGE, "sampling": {"count": True}}),
        ("solve", {"space": "absmax", "map": "scale-2",
                   "solver": {"x0": 1.0, "eps_stop": float("inf"), "max_iter": 50}}),
        ("solve", {"space": "absmax", "map": "moebius",
                   "solver": {"x0": 1.0, "eps_stop": "nan"}}),
        ("gauge", {"gauge": "identity-diag", "gauge_check": {"thresh": "inf"}}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": {"scales": ["nan"]}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5, "a": "constant-1e400"},
                       "sampling": {"count": 10}}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": {"scales": [-1.0, 0.0]}}),
        ("violate", {"space": "absmax", "map": "moebius",
                     "condition": {"id": "C-Q", "q": 0.5}, "violate": {"scales": []}}),
        ("axioms", {"space": "finite-uniform-100000000"}),
        ("axioms", {"space": "finite-uniform-101"}),  # past spaces.AXIOM_POINTS_MAX
        # rational strings past spaces.RATIONAL_MAX_DIGITS, refused before
        # Fraction runs: Fraction("9e-100000001") alone would take minutes
        ("condition", {"space": "finite-uniform-4", "map": "identity",
                       "condition": {"id": "EXT-III", "delta": "9e-1000001"},
                       "sampling": {"count": 10}}),
        ("oracle", {"space": "finite-uniform-4",
                    "theorem": {"id": "THM-2.12", "delta": "9e-100000001"}}),
        ("oracle", {"space": "finite-uniform-4",
                    "theorem": {"id": "THM-2.2", "q": "1/" + "7" * 1001}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5, "a": "constant-1e100000000"},
                       "sampling": {"count": 10}}),
        ("gauge", {"gauge": "linear-1e-100000000"}),
        # past conditions.GAUGE_GRID_MAX distinct values
        ("gauge", {"gauge": "ratio1", "gauge_check": {"grid": list(range(1, 34))}}),
        # past conditions.GAUGE_N_MAX diagonal steps
        ("gauge", {"gauge": "ratio1", "gauge_check": {"n_max": 10 ** 12}}),
        # past sampling.COUNT_MAX draws and dynamics.MAX_ITER_LIMIT steps,
        # refused before the first draw or step
        ("condition", {**_MOEBIUS_GAUGE, "sampling": {"count": 10 ** 7 + 1}}),
        ("solve", {"space": "absmax", "map": "moebius",
                   "solver": {"x0": 1.0, "max_iter": 10 ** 7 + 1}}),
        # a 401-digit x0 is past the float range
        ("solve", {"space": "absmax", "map": "moebius", "solver": {"x0": 10 ** 400}}),
        # an int field refuses a float that int() would truncate
        ("condition", {**_MOEBIUS_GAUGE, "sampling": {"count": 2.5}}),
        ("solve", {"space": "absmax", "map": "moebius",
                   "solver": {"x0": 1.0, "max_iter": 2.5}}),
        # no two points of the range are distinct at the default tol, so no
        # triple could ever be drawn
        ("condition", {"space": "absmax", "map": "moebius", "condition": {"id": "C-UNIT"},
                       "sampling": {"count": 10, "range": [1e-160, 3e-160]}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "EXT-III", "delta": 0.5},
                       "sampling": {"count": 5, "range": [5, 5.000000000001]}}),
        # its ends are distinct, but a drawn pair is distinct about once in
        # 10^10 draws, so it is refused after a run of blocks that keep none
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5},
                       "sampling": {"count": 10, "range": [0, 1.00001e-12]}}),
    ], ids=["count", "eps_stop", "map-param", "weight-param", "table-entry", "q", "scales",
            "sampling-section", "gauge_check-section", "violate-section", "grid-scalar",
            "scales-scalar", "q_grid-scalar", "negative-seed", "grid-nan", "grid-inf",
            "range-inf", "range-span", "gauge-factor-overflow", "theorem-bool",
            "condition-bool", "count-bool", "eps_stop-inf", "eps_stop-nan", "thresh-inf",
            "scales-nan", "weight-overflow", "scales-nonpositive", "scales-empty",
            "finite-uniform-size", "axioms-size", "condition-exponent", "theorem-exponent",
            "theorem-denominator", "weight-exponent", "gauge-exponent", "grid-size",
            "n_max-size", "count-size", "max_iter-size", "x0-overflow", "count-fraction",
            "max_iter-fraction", "range-tiny", "range-narrow", "range-sparse"])
    def test_exit_two(self, tmp_path, capsys, command, config):
        table = tmp_path / "bad.txt"
        table.write_text("2\n0 x\nx 0\n")
        if "space" in config and isinstance(config["space"], dict):
            config = {**config, "space": {**config["space"], "metric_table": str(table)}}
        code, _ = run(tmp_path, command, config)
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [5, True, ["a"], {}, "a\u0000b"],
                             ids=["int", "bool", "list", "object", "nul"])
    def test_malformed_out_exit_two(self, tmp_path, monkeypatch, capsys, out):
        # main runs without --out, which would take precedence over the key
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": "finite-uniform-3", "out": out}))
        assert main(["axioms", "--config", str(cfg)]) == 2
        assert "malformed out" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="this interpreter prints ints of any length")
    def test_report_rational_past_the_digit_limit_exit_two(self, tmp_path, capsys):
        # every input passes spaces.RATIONAL_MAX_DIGITS, but rhs = q * G(x, y, z)
        # on this perimeter table has more than 4300 digits
        rng = random.Random(33)
        den = [rng.randrange(10**998, 10**999) for _ in range(3)]
        d01, d02, d12 = (f"{d + rng.randrange(d // 2, d)}/{d}" for d in den)
        table = tmp_path / "t3.txt"
        table.write_text(f"3\n0 {d01} {d02}\n{d01} 0 {d12}\n{d02} {d12} 0\n")
        config = {"space": {"metric_table": str(table), "construction": "perimeter"},
                  "map": "identity", "condition": {"id": "C-Q", "q": "0." + "3" * 999 + "e-1000"},
                  "sampling": {"count": 10}}
        code, out = run(tmp_path, "condition", config)
        assert code == 2
        assert "too many digits" in capsys.readouterr().err
        assert not (out / "condition.json").exists()

    def test_integral_float_is_taken_as_an_int(self, tmp_path):
        config = {**_MOEBIUS_GAUGE, "sampling": {"count": 1e1, "seed": 0.0}}
        code, out = run(tmp_path, "condition", config)
        assert code == 0
        assert read_json(out / "condition.json")["certificate"]["checked"] == 10

    def test_negative_seed_flag_exit_two(self, tmp_path, capsys):
        config = {**_MOEBIUS_GAUGE, "sampling": {"count": 10}}
        code, _ = run(tmp_path, "condition", config, extra=("--seed", "-1"))
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("condition", {**_MOEBIUS_GAUGE, "sampling": {"count": 10}}),
        ("axioms", {"space": "drop-z"}),
    ], ids=["condition", "axioms"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tol_flag_exit_two(self, tmp_path, capsys, command, config, tol):
        code, out = run(tmp_path, command, config, extra=("--tol", tol))
        assert code == 2
        assert "malformed --tol" in capsys.readouterr().err
        assert not out.exists()


class TestNonStringSelectors:
    """A catalog selector that is not a string is a configuration error
    (exit 2), not an AttributeError traceback and exit 1."""

    @pytest.mark.parametrize("command, config", [
        ("solve", {"space": "absmax", "map": 5, "solver": {"x0": 1.0}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5, "a": 7}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-GAUGE", "gauge": 3}}),
        ("gauge", {"gauge": 5}),
        ("oracle", {"space": "finite-uniform-3", "theorem": {"id": "THM-2.10", "gauge": 1}}),
        ("oracle", {"space": "finite-uniform-3", "theorem": {"id": "THM-2.5", "a": 1}}),
    ], ids=["map", "condition.a", "condition.gauge", "gauge", "theorem.gauge", "theorem.a"])
    def test_exit_two(self, tmp_path, capsys, command, config):
        code, _ = run(tmp_path, command, config)
        assert code == 2
        assert "must be a catalog name" in capsys.readouterr().err


class TestUndecodableInput:
    """A config or metric table that cannot be decoded is a configuration
    error (exit 2), not a ValueError traceback and exit 1."""

    @pytest.mark.parametrize("config, table, message", [
        (b'{"space": "finite-uniform-4", "theorem": {"id": "THM-2.12", "delta": '
         + b"9" * 5001 + b"}}", None, "is not valid JSON"),
        (b'{"space": "finite-uniform-4", "theorem": {"id": "THM-2.12", "delta": "9/10\xff"}}',
         None, "is not valid JSON"),
        (b'{"space": {"metric_table": "TABLE"}, "theorem": {"id": "THM-2.5"}}',
         b"2\n0 1\n1 0\xff\n", "malformed metric table"),
        (b'{"space": {"metric_table": "TABLE"}, "theorem": {"id": "THM-2.5"}}',
         b"2\n0 1e-1001\n1e-1001 0\n", "malformed metric table"),
    ], ids=["config-int-digits", "config-not-utf8", "table-not-utf8", "table-exponent"])
    def test_exit_two(self, tmp_path, capsys, config, table, message):
        if table is not None:
            (tmp_path / "table.txt").write_bytes(table)
            config = config.replace(b"TABLE", str(tmp_path / "table.txt").encode())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(config)
        code = main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err


class TestConditionCommand:
    def test_gauge_certificate_clean(self, tmp_path):
        code, out = run(tmp_path, "condition", {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "C-GAUGE", "gauge": "ratio1", "a": "zero"},
            "sampling": {"count": 2000, "range": [0, 100], "seed": 0},
        })
        assert code == 0
        cert = read_json(out / "condition.json")["certificate"]
        assert cert["checked"] == 2000 and cert["fails"] == 0

    def test_q_condition_fails_for_moebius(self, tmp_path):
        # violations live at small, well-separated coordinates, where the
        # image contraction ratio 1/((1+a)(1+b)) still exceeds q
        code, out = run(tmp_path, "condition", {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "C-Q", "q": 0.9},
            "sampling": {"count": 3000, "range": [0, 0.05], "seed": 0},
        })
        assert code == 1
        cert = read_json(out / "condition.json")["certificate"]
        assert cert["fails"] > 0
        worst = cert["worst"][0]
        spec = gm.ConditionSpec(id="C-Q", q=0.9)
        sp = catalog.space_absmax()
        verdict = gm.eval_condition(sp, catalog.get_map("moebius", sp), spec,
                                    *worst["triple"])
        assert verdict.status == "FAILS"

    def test_scaling_map_holds(self, tmp_path):
        code, out = run(tmp_path, "condition", {
            "space": "absmax", "map": "scale-0.5",
            "condition": {"id": "C-Q", "q": 0.6},
            "sampling": {"count": 2000, "range": [0, 100], "seed": 0},
        })
        assert code == 0
        assert read_json(out / "condition.json")["certificate"]["fails"] == 0

    def test_tol_flag_reaches_the_sampler(self, tmp_path):
        # the sampler redraws x ~ y under the same --tol as the certificate's guard
        code, out = run(tmp_path, "condition", {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "C-GAUGE", "gauge": "ratio1"},
            "sampling": {"count": 5000, "seed": 0},
        }, extra=("--tol", "0.01"))
        assert code == 0
        assert read_json(out / "condition.json")["certificate"]["checked"] == 5000

    def test_seed_flag_overrides(self, tmp_path):
        cfg = {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "C-GAUGE", "gauge": "ratio1"},
            "sampling": {"count": 50, "seed": 0},
        }
        code, out = run(tmp_path, "condition", cfg, extra=("--seed", "9"))
        assert code == 0
        assert read_json(out / "condition.json")["sampling"]["seed"] == 9

    @pytest.mark.parametrize("key, value, message", [
        ("a", "constant-5", "does not take a weight function"),
        ("gauge", "half", "does not take a gauge"),
    ], ids=["weight", "gauge"])
    def test_extension_condition_refuses_majorant_keys_exit_two(self, tmp_path, capsys,
                                                                key, value, message):
        code, out = run(tmp_path, "condition", {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "EXT-III", "delta": 0.9, key: value},
        })
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "condition.json").exists()


class TestSolveCommand:
    def test_moebius_sublinear(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "space": "absmax", "map": "moebius",
            "solver": {"x0": 1.0, "eps_stop": 1e-4, "max_iter": 100000},
        })
        assert code == 0
        cert = read_json(out / "solve.json")["certificate"]
        assert cert["convergence_class"] == "sublinear"
        assert abs(cert["candidate"]) < 0.02
        assert (out / "trace.csv").read_text().splitlines()[0] == "n,x,gap,bound"

    def test_certified_bound_written(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "space": "absmax", "map": "scale-0.5",
            "solver": {"x0": 1.0, "eps_stop": 1e-6, "max_iter": 1000,
                       "certified_q": 0.5},
        })
        assert code == 0
        cert = read_json(out / "solve.json")["certificate"]
        assert cert["apriori_bound"] is not None
        assert cert["residual"] <= cert["apriori_bound"] + 1e-12
        first_row = (out / "trace.csv").read_text().splitlines()[1]
        assert first_row.split(",")[3] != ""

    def test_constant_map_single_step(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "space": "absmax", "map": "constant-3",
            "solver": {"x0": 50.0, "eps_stop": 1e-9, "max_iter": 10},
        })
        assert code == 0
        cert = read_json(out / "solve.json")["certificate"]
        assert cert["candidate"] == 3.0 and cert["iterations"] <= 1

    def test_image_at_a_pole_exit_two(self, tmp_path, capsys):
        # moebius divides by x + 1, which is 0 at x0 = -1 on the whole line
        code, _ = run(tmp_path, "solve", {
            "space": "perimeter-r", "map": "moebius", "solver": {"x0": -1.0},
        })
        assert code == 2
        assert "non-finite coordinate nan" in capsys.readouterr().err

    def test_negative_trace_max_exit_two(self, tmp_path, capsys):
        code, out = run(tmp_path, "solve", {
            "space": "absmax", "map": "moebius", "solver": {"x0": 1.0, "trace_max": -1},
        })
        assert code == 2
        assert "trace_max must be nonnegative" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_trace_max_over_the_limit_exit_two(self, tmp_path, capsys):
        code, out = run(tmp_path, "solve", {
            "space": "absmax", "map": "moebius",
            "solver": {"x0": 1.0, "trace_max": gm.dynamics.TRACE_MAX_LIMIT + 1},
        })
        assert code == 2
        assert "trace_max must be at most 1000000" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_non_convergence_exit_one(self, tmp_path):
        code, out = run(tmp_path, "solve", {
            "space": "absmax", "map": "moebius",
            "solver": {"x0": 1.0, "eps_stop": 1e-12, "max_iter": 50},
        })
        assert code == 1
        assert read_json(out / "solve.json")["certificate"]["stop_reason"] == "max-iter"


def _children_left() -> bool:
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture
def forks(monkeypatch):
    """The number of ``os.fork`` calls in this test, as a one-item list."""
    count, fork = [0], os.fork

    def counted():
        count[0] += 1
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return count


MOEBIUS_1000 = {"space": "absmax", "map": "moebius",
                "solver": {"x0": 1.0, "eps_stop": 1e-12, "max_iter": 1000, "trace_max": 10}}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the forked writer needs os.fork")
class TestForkedTraceWriter:
    """A trace that fills while the loop goes on is written by a forked child."""

    @pytest.mark.parametrize("config", [
        MOEBIUS_1000,
        {**MOEBIUS_1000, "solver": {**MOEBIUS_1000["solver"], "certified_q": 0.9}},
        # fills at step 1 and stops at step 2; its gap field is "Fraction(1, 1)"
        {"space": "finite-uniform-5", "map": "constant-2", "solver": {"x0": 0, "trace_max": 1}},
    ])
    def test_forked_bytes_are_the_inline_bytes(self, tmp_path, monkeypatch, forks, config):
        for side in ("forked", "inline"):
            (tmp_path / side).mkdir()
        code, out = run(tmp_path / "forked", "solve", config)
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert run(tmp_path / "inline", "solve", config)[0] == code
        for name in ("trace.csv", "solve.json"):
            assert (out / name).read_bytes() == (tmp_path / "inline" / "out" / name).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["solve.json", "trace.csv"]
        assert not _children_left()

    def test_stop_before_the_trace_fills_writes_inline(self, tmp_path, forks):
        code, out = run(tmp_path, "solve", {**MOEBIUS_1000, "solver": {"x0": 1.0, "max_iter": 10,
                                                                      "trace_max": 10}})
        assert code == 1 and forks == [0]
        assert len((out / "trace.csv").read_bytes().splitlines()) == 12

    @pytest.mark.parametrize("earlier", [None, b"n,x,gap,bound\r\n0,1.0,,\r\n"])
    def test_failure_after_the_fork_leaves_no_trace_and_no_child(self, tmp_path, capsys, forks,
                                                                  earlier):
        out = tmp_path / "out"
        if earlier is not None:
            out.mkdir()
            (out / "trace.csv").write_bytes(earlier)
        code, _ = run(tmp_path, "solve", {
            "space": "absmax", "map": "scale-2",
            "solver": {"x0": 1.0, "max_iter": 2000, "trace_max": 5}})
        assert code == 2 and forks == [1]
        assert "non-finite coordinate inf" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ([] if earlier is None else ["trace.csv"])
        if earlier is not None:
            assert (out / "trace.csv").read_bytes() == earlier
        assert not _children_left()

    def test_failed_writer_exits_two_with_its_text(self, tmp_path, capsys, monkeypatch, forks):
        def full(trace, path, certified_q=None):
            open(path, "w").close()
            raise OSError("disk full")
        monkeypatch.setattr(gm.dynamics, "write_trace_csv", full)
        code, out = run(tmp_path, "solve", MOEBIUS_1000)
        assert code == 2 and forks == [1]
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.iterdir()) == []
        assert not _children_left()

    def test_a_failed_inline_write_keeps_the_earlier_trace(self, tmp_path, capsys, monkeypatch):
        def partial(trace, path, certified_q=None):
            with open(path, "w", newline="") as fh:
                fh.write("n,x,gap,bound\r\n0,1.0")
            raise OSError("disk full")
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(gm.dynamics, "write_trace_csv", partial)
        monkeypatch.setattr(gm.cli, "write_trace_csv", partial)
        earlier = b"n,x,gap,bound\r\n0,1.0,,\r\n"
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace.csv").write_bytes(earlier)
        code, _ = run(tmp_path, "solve", MOEBIUS_1000)
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert [p.name for p in out.iterdir()] == ["trace.csv"]
        assert (out / "trace.csv").read_bytes() == earlier

    def test_a_killed_writer_is_replaced_by_an_inline_write(self, tmp_path, monkeypatch, forks):
        parent, write = os.getpid(), gm.dynamics.write_trace_csv

        def killed_in_the_child(trace, path, certified_q=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            write(trace, path, certified_q)
        (tmp_path / "inline").mkdir()
        monkeypatch.setattr(gm.dynamics, "write_trace_csv", killed_in_the_child)
        code, out = run(tmp_path, "solve", MOEBIUS_1000)
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert run(tmp_path / "inline", "solve", MOEBIUS_1000)[0] == code
        for name in ("trace.csv", "solve.json"):
            assert (out / name).read_bytes() == (tmp_path / "inline" / "out" / name).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["solve.json", "trace.csv"]
        assert not _children_left()

    def test_a_failed_fork_writes_inline(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")
        (tmp_path / "inline").mkdir()
        code, out = run(tmp_path / "inline", "solve", MOEBIUS_1000)
        monkeypatch.setattr(os, "fork", no_fork)
        assert run(tmp_path, "solve", MOEBIUS_1000)[0] == code
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["solve.json", "trace.csv"]
        assert (tmp_path / "out" / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()

    def test_an_interrupt_kills_and_reaps_a_running_writer(self, tmp_path):
        # 10^5 rows take about 0.3 s to write, so the writer is still running
        trace = gm.OrbitTrace(points=[1.0 / (k + 1) for k in range(10 ** 5)],
                              gaps=[1.0 / (k + 1) ** 2 for k in range(10 ** 5 - 1)])
        (tmp_path / "trace.csv").write_bytes(b"earlier")
        with pytest.raises(KeyboardInterrupt):
            with gm.dynamics.TraceWriter(tmp_path / "trace.csv") as writer:
                writer.fork(trace)
                raise KeyboardInterrupt
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
        assert (tmp_path / "trace.csv").read_bytes() == b"earlier"
        assert not _children_left()


class TestGaugeCommand:
    def test_shrinking_gauge_exit_zero(self, tmp_path):
        code, out = run(tmp_path, "gauge", {"gauge": "ratio1"})
        assert code == 0
        rep = read_json(out / "gauge.json")["report"]
        assert rep["admissible"] is True
        assert rep["equivalence_consistent"] is True

    def test_identity_gauge_exit_one(self, tmp_path):
        code, out = run(tmp_path, "gauge", {"gauge": "identity-diag"})
        assert code == 1
        rep = read_json(out / "gauge.json")["report"]
        assert rep["diagonal_strict"]["status"] == "FAIL"
        assert rep["equivalence_consistent"] is True

    def test_half_gauge_exit_zero(self, tmp_path):
        code, _ = run(tmp_path, "gauge", {"gauge": "half"})
        assert code == 0


class TestOracleCommand:
    def test_extension_uniform_four(self, tmp_path):
        code, out = run(tmp_path, "oracle", {
            "space": "finite-uniform-4",
            "theorem": {"id": "THM-2.12", "delta": "0.9"},
        })
        assert code == 0
        rep = read_json(out / "oracle.json")["report"]
        assert rep["maps_total"] == 256
        assert rep["counterexamples"] == []

    def test_q_condition_uniform_three(self, tmp_path):
        code, out = run(tmp_path, "oracle", {
            "space": "finite-uniform-3",
            "theorem": {"id": "THM-2.2", "q": "1/2"},
        })
        assert code == 0
        assert read_json(out / "oracle.json")["report"]["maps_total"] == 27

    def test_inadmissible_gauge_counterexamples(self, tmp_path, capsys):
        # identity-diag has g(t) = t, so its hypothesis admits maps without a
        # unique fixed point or with a cycle
        code, out = run(tmp_path, "oracle", {
            "space": "finite-uniform-3",
            "theorem": {"id": "THM-2.10", "gauge": "identity-diag"},
        })
        assert code == 1
        rep = read_json(out / "oracle.json")["report"]
        assert (rep["maps_total"], rep["maps_satisfying_hypothesis"],
                rep["conclusion_holds"]) == (27, 6, 0)
        clauses = [(tuple(c["map"]), c["violated_clause"]) for c in rep["counterexamples"]]
        assert clauses[0] == ((0, 1, 2), "fixed-point-not-unique")
        assert rep["counterexamples"][0]["witness"] == {"fixed_points": [0, 1, 2]}
        assert [c for _, c in clauses[1:]] == ["orbit-not-convergent"] * 5
        printed = capsys.readouterr().out
        assert "counterexamples=6" in printed
        assert printed.count("  counterexample map=") == 3

    def test_cap_exceeded_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "oracle", {
            "space": "finite-uniform-6",
            "theorem": {"id": "THM-2.12", "delta": "0.9"},
        })
        assert code == 2

    def test_float_space_exit_two(self, tmp_path):
        code, _ = run(tmp_path, "oracle", {
            "space": "absmax",
            "theorem": {"id": "THM-2.2", "q": "1/2"},
        })
        assert code == 2

    @pytest.mark.parametrize("theorem", [
        {"id": "THM-2.12", "delta": "2"},
        {"id": "THM-2.12", "alpha": "3"},
        {"id": "THM-2.12", "beta": "1/4"},
        {"id": "THM-2.2"},
        {"id": "THM-2.2", "q": "1"},
        {"id": "THM-2.10"},
        {"id": "THM-2.12", "delta": "9/10", "a": "constant-1"},
        {"id": "THM-2.12", "delta": "9/10", "scope": "orbit"},
    ], ids=["delta", "alpha", "beta", "no-q", "q", "no-gauge", "ext-weight", "ext-scope"])
    def test_bad_theorem_parameter_exit_two(self, tmp_path, capsys, theorem):
        code, out = run(tmp_path, "oracle", {"space": "finite-uniform-3", "theorem": theorem})
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "oracle.json").exists()

    def test_metric_table_space(self, tmp_path):
        table = tmp_path / "m.txt"
        table.write_text("3\n0 4 4\n4 0 1\n4 1 0\n")
        code, out = run(tmp_path, "oracle", {
            "space": {"metric_table": str(table), "construction": "max"},
            "theorem": {"id": "THM-2.10", "gauge": "ratio1"},
        })
        assert code == 0
        rep = read_json(out / "oracle.json")["report"]
        assert rep["maps_total"] == 27
        assert rep["counterexamples"] == []


class TestViolateCommand:
    def test_extension_condition_exit_two(self, tmp_path, capsys):
        code, out = run(tmp_path, "violate", {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "EXT-III", "delta": 0.5},
        })
        assert code == 2
        assert "(C-Q, C-UNIT, C-GAUGE), not EXT-III" in capsys.readouterr().err
        assert not (out / "violate.json").exists()

    def test_finite_carrier_exit_two(self, tmp_path, capsys):
        # its candidate triples are floats, which a finite carrier rejects one
        # by one, so the search would report a clean pass without a verdict
        code, out = run(tmp_path, "violate", {
            "space": "finite-uniform-3", "map": "identity",
            "condition": {"id": "C-Q", "q": 0.5},
        })
        assert code == 2
        assert "one-dimensional real carrier" in capsys.readouterr().err
        assert not (out / "violate.json").exists()

    def test_moebius_q_grid(self, tmp_path):
        code, out = run(tmp_path, "violate", {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "C-Q", "q": 0.5},
            "violate": {"q_grid": [0.5, 0.9, 0.99]},
        })
        assert code == 0
        payload = read_json(out / "violate.json")
        assert payload["found_all"] is True
        assert len(payload["results"]) == 3
        for entry in payload["results"]:
            assert entry["found"] and entry["reverified"]

    def test_contraction_has_no_witness(self, tmp_path):
        code, out = run(tmp_path, "violate", {
            "space": "absmax", "map": "scale-0.5",
            "condition": {"id": "C-Q", "q": 0.6},
        })
        assert code == 1
        assert read_json(out / "violate.json")["found_all"] is False

    def test_identity_witness(self, tmp_path):
        code, out = run(tmp_path, "violate", {
            "space": "absmax", "map": "identity",
            "condition": {"id": "C-Q", "q": 0.9},
        })
        assert code == 0
        entry = read_json(out / "violate.json")["results"][0]
        assert entry["found"] and entry["reverified"]


class TestDeterminism:
    def test_condition_reports_byte_identical(self, tmp_path):
        cfg = {
            "space": "absmax", "map": "moebius",
            "condition": {"id": "C-GAUGE", "gauge": "ratio1"},
            "sampling": {"count": 500, "range": [0, 100], "seed": 0},
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["condition", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append((out / "condition.json").read_bytes())
        assert outs[0] == outs[1]

    def test_solve_trace_byte_identical(self, tmp_path):
        cfg = {"space": "absmax", "map": "moebius",
               "solver": {"x0": 1.0, "eps_stop": 1e-4, "max_iter": 10000}}
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["solve", "--config", str(cfg_path), "--out", str(out)])
            blobs.append((out / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]


# Runs in a fresh interpreter, since this one has numpy and every gmetric
# layer loaded already: reports, after the import and after each command,
# whether numpy is loaded and which gmetric modules are.
_STARTUP_SCRIPT = """
import json, os, sys
import gmetric, gmetric.cli

def state(command, code):
    return (command, code, "numpy" in sys.modules,
            sorted(m for m in sys.modules if m.startswith("gmetric.")))

work = sys.argv[1]
seen = [state("import", None)]
for command, config in json.loads(sys.argv[2]):
    path = os.path.join(work, command + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    code = gmetric.cli.main([command, "--config", path, "--out", os.path.join(work, command)])
    seen.append(state(command, code))
print(json.dumps(seen))
"""


def _source_env(**extra):
    """This environment, ``extra`` added, for a new interpreter that imports
    gmetric from the source tree under test."""
    src = str(Path(gm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def _fresh_interpreter(script, *args):
    """The last stdout line of ``script`` run in a new interpreter that
    imports gmetric from the source tree under test, read as JSON."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_loads_only_for_commands_that_use_it(tmp_path):
    # entries in [1, 2]: the triangle inequality holds without the numpy check
    table = tmp_path / "table.txt"
    table.write_text("4\n0 1 3/2 2\n1 0 2 3/2\n3/2 2 0 1\n2 3/2 1 0\n")
    # modules stay loaded: the commands that load fewer layers run first
    commands = [
        ("solve", {"space": "absmax", "map": "moebius", "solver": {"x0": 1.0}}),
        ("axioms", {"space": "absmax"}),
        ("axioms", {"space": {"metric_table": str(table)}}),
        # 16 scalar uniform draws join the standard sample without numpy
        ("axioms", {"space": "absmax", "sampling": {"count": 16, "seed": 3}}),
        ("gauge", {"gauge": "ratio1"}),
        ("violate", {"space": "absmax", "map": "moebius", "condition": {"id": "C-Q", "q": 0.5}}),
        # finite indices are drawn without numpy; every triple fails (exit 1)
        ("condition", {"space": "finite-uniform-8", "map": "identity",
                       "condition": {"id": "EXT-III", "delta": "9/10"},
                       "sampling": {"count": 2000, "seed": 1}}),
        ("condition", {"space": {"metric_table": str(table)}, "map": "identity",
                       "condition": {"id": "C-Q", "q": "1/2"}, "sampling": {"count": 100}}),
        ("oracle", {"space": "finite-uniform-5", "theorem": {"id": "THM-2.12", "delta": "9/10"}}),
        ("oracle", {"space": {"metric_table": str(table)},
                    "theorem": {"id": "THM-2.5", "scope": "orbit"}}),
        ("condition", {"space": "absmax", "map": "moebius",
                       "condition": {"id": "C-Q", "q": 0.5}, "sampling": {"count": 10}}),
    ]
    seen = _fresh_interpreter(_STARTUP_SCRIPT, str(tmp_path), json.dumps(commands))
    assert [entry[:3] for entry in seen] == [
        ["import", None, False], ["solve", 0, False], ["axioms", 0, False],
        ["axioms", 0, False], ["axioms", 0, False], ["gauge", 0, False],
        ["violate", 0, False], ["condition", 1, False], ["condition", 1, False],
        ["oracle", 0, False], ["oracle", 0, False], ["condition", 0, True]]
    conditions, oracle = "gmetric.conditions", "gmetric.oracle"
    assert [(command, [m for m in modules if m in (conditions, oracle)])
            for command, _, _, modules in seen] == [
        ("import", []), ("solve", []), ("axioms", []), ("axioms", []), ("axioms", []),
        ("gauge", [conditions]), ("violate", [conditions]), ("condition", [conditions]),
        ("condition", [conditions]), ("oracle", [conditions, oracle]),
        ("oracle", [conditions, oracle]), ("condition", [conditions, oracle])]
    # sampling loads with the first command that draws points
    assert [(command, "gmetric.sampling" in modules) for command, _, _, modules in seen] == [
        ("import", False), ("solve", False), ("axioms", False), ("axioms", False),
        ("axioms", True), ("gauge", True), ("violate", True), ("condition", True),
        ("condition", True), ("oracle", True), ("oracle", True), ("condition", True)]
    dynamics = "gmetric.dynamics"
    assert [dynamics in modules for _, _, _, modules in seen] == [False] + [True] * 11
    # run last, solve is still the only command that loads dynamics
    last = commands[1:] + commands[:1]
    seen = _fresh_interpreter(_STARTUP_SCRIPT, str(tmp_path), json.dumps(last))
    assert [dynamics in modules for _, _, _, modules in seen] == [False] * 11 + [True]
    assert seen[-1][:2] == ["solve", 0]


# The names gmetric.cli takes from the dynamics, condition and oracle layers,
# which it binds only when a command that runs them starts;
# perfbench/tracer.py reads and replaces them on gmetric.cli before main runs.
_DEFERRED_NAMES = {
    "dynamics": ["DEFAULT_TRACE_MAX", "TraceWriter", "orbit", "solve_picard", "write_trace_csv"],
    "conditions": ["MAJORANT_IDS", "ConditionSpec", "certify_on_samples", "check_aux_bound",
                   "check_gauge_admissible", "eval_condition"],
    "oracle": ["DEFAULT_MAP_CAP", "exhaustive_theorem_check"],
}

_READ_SCRIPT = """
import importlib, json, sys
import gmetric.cli as cli
homes = json.loads(sys.argv[1])
read = {name: getattr(cli, name) for names in homes.values() for name in names}
print(json.dumps({name: read[name] is getattr(importlib.import_module("gmetric." + layer), name)
                  for layer, names in homes.items() for name in names}))
"""

_REPLACE_SCRIPT = """
import json, os, sys
import gmetric.cli as cli
work = sys.argv[1]
calls = []

def spy(name, fn):
    def call(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return call

# one name read and then replaced, as the tracer does, and one replaced unread
certify = cli.certify_on_samples = spy("certify_on_samples", cli.certify_on_samples)
import gmetric.oracle
check = cli.exhaustive_theorem_check = spy("exhaustive_theorem_check",
                                           gmetric.oracle.exhaustive_theorem_check)
codes = []
for command, config in json.loads(sys.argv[2]):
    path = os.path.join(work, command + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    codes.append(cli.main([command, "--config", path, "--out", os.path.join(work, command)]))
print(json.dumps([codes, calls, cli.certify_on_samples is certify,
                  cli.exhaustive_theorem_check is check]))
"""


def test_deferred_cli_names_are_their_home_objects():
    same = _fresh_interpreter(_READ_SCRIPT, json.dumps(_DEFERRED_NAMES))
    assert same == {name: True for names in _DEFERRED_NAMES.values() for name in names}


def test_a_cli_name_replaced_before_main_is_the_one_main_calls(tmp_path):
    commands = [
        ("condition", {"space": "finite-uniform-4", "map": "identity",
                       "condition": {"id": "EXT-III", "delta": "9/10"},
                       "sampling": {"count": 10}}),
        ("oracle", {"space": "finite-uniform-3", "theorem": {"id": "THM-2.12", "delta": "9/10"}}),
    ]
    codes, calls, certify_kept, check_kept = _fresh_interpreter(
        _REPLACE_SCRIPT, str(tmp_path), json.dumps(commands))
    assert codes == [1, 0]
    assert calls == ["certify_on_samples", "exhaustive_theorem_check"]
    assert certify_kept and check_kept


# Reports whether reading gmetric.SelfMap loaded gmetric.dynamics, and
# whether the package, spaces and dynamics name one SelfMap object.
_SELFMAP_SCRIPT = """
import json, sys
import gmetric as gm
read = gm.SelfMap
loaded = "gmetric.dynamics" in sys.modules
import gmetric.dynamics, gmetric.spaces
print(json.dumps([loaded, read is gmetric.spaces.SelfMap is gmetric.dynamics.SelfMap]))
"""


def test_selfmap_is_one_object_and_reading_it_loads_no_dynamics():
    assert _fresh_interpreter(_SELFMAP_SCRIPT) == [False, True]


# Runs main and then entry twice, with OPENBLAS_NUM_THREADS unset and then
# set to 3; reports main's exit code, whether main left os.environ as it
# was, and each entry's exit code and the variable's value after it.
_ENVIRON_SCRIPT = """
import json, os, sys
import gmetric.cli as cli
os.environ.pop("OPENBLAS_NUM_THREADS", None)
before = dict(os.environ)
seen = [cli.main(sys.argv[1:]), dict(os.environ) == before]
for preset in (None, "3"):
    if preset is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = preset
    try:
        cli.entry()
    except SystemExit as stop:
        seen.append([stop.code, os.environ.get("OPENBLAS_NUM_THREADS")])
print(json.dumps(seen))
"""


def test_entry_defaults_openblas_to_one_thread_and_main_leaves_the_environment(tmp_path):
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps({"space": "absmax"}))
    seen = _fresh_interpreter(_ENVIRON_SCRIPT, "axioms", "--config", str(cfg),
                              "--out", str(tmp_path / "out"))
    assert seen == [0, True, [0, "1"], [0, "3"]]


@pytest.mark.parametrize("condition, rng", [
    ({"id": "C-Q", "q": 0.9}, [0, 1]),
    ({"id": "C-GAUGE", "gauge": "half", "a": "reciprocal-cap-2"}, [0, 100]),
])
def test_numpy_kernel_certificates_do_not_depend_on_openblas_threads(tmp_path, condition, rng):
    # 3 BLOCK chunks and part of a fourth, decided by the numpy kernel
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"space": "absmax", "map": "moebius", "condition": condition,
                               "sampling": {"count": 3 * gm.sampling.BLOCK + 5, "range": rng,
                                            "seed": 1}}))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "gmetric.cli", "condition", "--config",
                               str(cfg), "--out", str(out)],
                              env=_source_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1), proc.stderr
        runs.append((proc.returncode, (out / "condition.json").read_bytes()))
    assert runs[0] == runs[1]
