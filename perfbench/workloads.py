"""Workload definitions: seeded inputs, command lists and output checks.

Every input is generated here from the benchmark seed, with the
benchmark's own generator, so a change to the library cannot change what
the benchmark feeds it.  A workload is a list of CLI commands; one pass
runs the list once.  Pass ``i`` of a run uses input set ``i % INPUT_SETS``,
so a run averages over several generated inputs and the same seed always
yields the same sets.  A command with ``repeat`` > 1 runs that many times
per pass, so a rate that rests on one small command gets more samples.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from fractions import Fraction

INPUT_SETS = 12
DEFAULT_SEED = 0


# ---------------------------------------------------------------- inputs

def set_rng(workload: str, seed: int, set_index: int) -> random.Random:
    """Independent generator for one input set (string seeding is stable
    across Python versions)."""
    return random.Random(f"gmetric-perfbench/{workload}/{seed}/{set_index}")


def metric_rows(rng: random.Random, m: int, max_den: int = 12) -> list:
    """Symmetric m x m table of rationals with off-diagonal entries in
    [1, 2]; any such table satisfies the triangle inequality."""
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            den = rng.randint(1, max_den)
            rows[i][j] = rows[j][i] = Fraction(rng.randint(den, 2 * den), den)
    return rows


def metric_table_text(rows: list) -> str:
    lines = [str(len(rows))] + [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _table_space(set_dir: str, rng: random.Random, m: int, construction: str,
                 tables: list) -> dict:
    name = f"{construction}-m{m}.txt"
    with open(os.path.join(set_dir, name), "w") as fh:
        fh.write(metric_table_text(metric_rows(rng, m)))
    tables.append({"file": name, "m": m, "construction": construction})
    # Relative to the set directory, which is the command's working directory.
    return {"metric_table": name, "construction": construction}


def _cmd(name, cmd, config, expect_exit, repeat=1, **expect):
    return {"name": name, "cmd": cmd, "config": config,
            "expect_exit": expect_exit, "expect": expect, "repeat": repeat}


# Small commands that keep every end-to-end rate defined on every workload.
# Each computes for about as long as the interpreter takes to start, so the
# rate they give is not start-up jitter alone.  The ones a rate rests on run
# CONTROL_REPEATS times per pass.
CONTROL_REPEATS = 2


def _control_condition(rng):
    # Every triple is vacuous and the memo is bounded by m^3, so unlike a
    # float certificate this control does not raise the workload's peak RSS.
    return _cmd("control-condition", "condition",
                {"space": "finite-uniform-5", "map": "constant-0",
                 "condition": {"id": "C-GAUGE", "gauge": "ratio1"},
                 "sampling": {"count": 10_000, "seed": rng.randrange(2**31)}},
                0, repeat=CONTROL_REPEATS, fails="none")


def _control_oracle():
    return _cmd("control-oracle", "oracle",
                {"space": "finite-uniform-5",
                 "theorem": {"id": "THM-2.12", "delta": "9/10", "cap": 5}},
                0, repeat=CONTROL_REPEATS, m=5)


def _control_solve(rng):
    return _cmd("control-solve", "solve",
                {"space": "absmax", "map": "moebius",
                 "solver": {"x0": rng.uniform(0.5, 2.0), "eps_stop": 1e-10,
                            "max_iter": 1_000_000, "trace_max": 10_000}},
                0, repeat=CONTROL_REPEATS)


def _control_axioms():
    return _cmd("control-axioms", "axioms", {"space": "absmax"}, 0, mode="sampled")


def sampled_real(set_dir, rng, tables):
    return [
        _cmd("gauge-certificate", "condition",
             {"space": "absmax", "map": "moebius",
              "condition": {"id": "C-GAUGE", "gauge": "ratio1", "a": "zero"},
              "sampling": {"count": 20_000, "range": [0, 100],
                           "seed": rng.randrange(2**31)}},
             0, fails="none"),
        _cmd("q-certificate", "condition",
             {"space": "absmax", "map": "moebius",
              "condition": {"id": "C-Q", "q": 0.9},
              "sampling": {"count": 20_000, "range": [0, 1],
                           "seed": rng.randrange(2**31)}},
             1, fails="some"),
        _cmd("q-violate", "violate",
             {"space": "absmax", "map": "moebius",
              "condition": {"id": "C-Q", "q": 0.9},
              "violate": {"q_grid": [0.5, 0.9, 0.99]}},
             0),
        _control_oracle(),
        _control_solve(rng),
        _control_axioms(),
    ]


def exact_finite(set_dir, rng, tables):
    return [
        _cmd("ext-oracle", "oracle",
             {"space": _table_space(set_dir, rng, 5, "perimeter", tables),
              "theorem": {"id": "THM-2.12", "delta": "9/10", "cap": 5}},
             0, m=5),
        _cmd("unit-orbit-oracle", "oracle",
             {"space": _table_space(set_dir, rng, 6, "perimeter", tables),
              "theorem": {"id": "THM-2.5", "scope": "orbit", "cap": 6}},
             0, m=6),
        _cmd("ext-certificate", "condition",
             {"space": _table_space(set_dir, rng, 8, "perimeter", tables),
              "map": "identity",
              "condition": {"id": "EXT-III", "delta": "9/10"},
              "sampling": {"count": 10_000, "seed": rng.randrange(2**31)}},
             1, repeat=2, fails="all"),
        _cmd("exhaustive-axioms", "axioms",
             {"space": _table_space(set_dir, rng, 16, "max", tables)},
             0, mode="exhaustive", m=16),
        _control_solve(rng),
    ]


def picard_iterate(set_dir, rng, tables):
    return [
        _cmd("moebius-solve", "solve",
             {"space": "absmax", "map": "moebius",
              "solver": {"x0": rng.uniform(0.5, 2.0), "eps_stop": 1e-11,
                         "max_iter": 1_000_000, "trace_max": 100_000}},
             0),
        _cmd("scale-solve", "solve",
             {"space": "absmax", "map": "scale-0.5",
              "solver": {"x0": rng.uniform(1.0, 10.0), "eps_stop": 1e-12,
                         "max_iter": 1_000, "certified_q": 0.5}},
             0),
        _cmd("sampled-axioms", "axioms",
             {"space": "absmax",
              "sampling": {"count": 16, "range": [0, 100],
                           "seed": rng.randrange(2**31)}},
             0, mode="sampled"),
        _cmd("gauge-admissible", "gauge", {"gauge": "ratio1"}, 0),
        _control_condition(rng),
        _control_oracle(),
    ]


WORKLOADS = {
    "sampled-real": sampled_real,
    "exact-finite": exact_finite,
    "picard-iterate": picard_iterate,
}


def make_input_set(workload: str, seed: int, set_index: int, set_dir: str) -> dict:
    """Write one input set (metric tables and JSON configs) into ``set_dir``
    and return its command list and table manifest."""
    os.makedirs(set_dir, exist_ok=True)
    rng = set_rng(workload, seed, set_index)
    tables = []
    commands = WORKLOADS[workload](set_dir, rng, tables)
    for c in commands:
        c["config_path"] = f"{c['name']}.json"
        c["out_dir"] = os.path.join("out", c["name"])
        with open(os.path.join(set_dir, c["config_path"]), "w") as fh:
            json.dump(c["config"], fh, sort_keys=True, indent=2)
    manifest = {"workload": workload, "seed": seed, "set": set_index, "tables": tables}
    with open(os.path.join(set_dir, "inputs.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return {"dir": set_dir, "index": set_index, "commands": commands, "tables": tables}


# ---------------------------------------------------------------- checks

REPORT_FILES = {
    "condition": ("condition.json",),
    "oracle": ("oracle.json",),
    "violate": ("violate.json",),
    "solve": ("solve.json", "trace.csv"),
    "axioms": ("axioms.json",),
    "gauge": ("gauge.json",),
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_condition(cmd, rep, out_dir):
    cert = rep["certificate"]
    count = cmd["config"]["sampling"]["count"]
    _require(cert["checked"] == count, f"checked {cert['checked']} != count {count}")
    _require(cert["holds"] + cert["fails"] == cert["checked"], "holds + fails != checked")
    _require(cert["holds"] == cert["holds_strict"] + cert["holds_weak"] + cert["vacuous"],
             "holds tally does not add up")
    _require(len(cert["worst"]) == min(cert["fails"], 10), "worst list has the wrong length")
    _require(all(w["status"] == "FAILS" for w in cert["worst"]), "worst entry is not a failure")
    want = cmd["expect"]["fails"]
    if want == "none":
        _require(cert["fails"] == 0, f"expected no failing triple, got {cert['fails']}")
    elif want == "some":
        _require(0 < cert["fails"] < count, f"expected some failing triples, got {cert['fails']}")
    else:
        _require(cert["fails"] == count, f"expected every triple to fail, got {cert['fails']}")
    return {"triples": cert["checked"]}


def _check_oracle(cmd, rep, out_dir):
    r = rep["report"]
    m = cmd["expect"]["m"]
    _require(r["maps_total"] == m ** m, f"maps_total {r['maps_total']} != {m}^{m}")
    _require(r["maps_satisfying_hypothesis"] + r["hypothesis_failing"] == r["maps_total"],
             "satisfying + failing != maps_total")
    _require(r["conclusion_holds"] + len(r["counterexamples"])
             == r["maps_satisfying_hypothesis"], "conclusion tally does not add up")
    _require(not r["counterexamples"], "theorem has counterexamples")
    _require(r["conclusion_holds"] == r["maps_satisfying_hypothesis"],
             "conclusion_holds != maps_satisfying")
    return {"maps": r["maps_total"]}


def _absmax(x, y, z):
    return max(abs(x - y), abs(y - z), abs(z - x))


def _moebius(x):
    return x / (x + 1.0)


def _check_violate(cmd, rep, out_dir):
    """Re-derive each C-Q witness with the benchmark's own moebius and
    absmax formulas: the left side must reach q times the majorant."""
    _require(rep["found_all"] is True, "not every q has a witness")
    q_grid = cmd["config"]["violate"]["q_grid"]
    _require(len(rep["results"]) == len(q_grid), "one result per q expected")
    for q, res in zip(q_grid, rep["results"]):
        _require(res["found"] and res["reverified"], f"q={q}: witness not reverified")
        w = res["witness"]
        _require(w["status"] == "FAILS", f"q={q}: witness status {w['status']}")
        x, y, z = w["triple"]
        tx, ty, tz = _moebius(x), _moebius(y), _moebius(z)
        lhs = _absmax(tx, ty, tz)
        m1 = _absmax(x, y, z)
        cands = [m1, 0.0]
        if m1 * lhs != 0:
            cands.append(_absmax(x, tx, tx) * _absmax(y, ty, ty) * _absmax(z, tz, tz) / (m1 * lhs))
        rhs = q * max(cands)
        _require(math.isclose(lhs, w["lhs"], rel_tol=1e-9, abs_tol=1e-300),
                 f"q={q}: reported lhs {w['lhs']} != recomputed {lhs}")
        _require(lhs >= rhs * (1 - 1e-9), f"q={q}: witness does not violate ({lhs} < {rhs})")
    return {}


def _check_solve(cmd, rep, out_dir):
    cert = rep["certificate"]
    solver = cmd["config"]["solver"]
    _require(cert["residual"] <= solver["eps_stop"],
             f"residual {cert['residual']} > eps {solver['eps_stop']}")
    _require(cert["iterations"] <= solver["max_iter"], "iterations exceed max_iter")
    with open(os.path.join(out_dir, "trace.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = sum(1 for _ in reader)
    _require(header == ["n", "x", "gap", "bound"], f"trace header {header}")
    expected = min(max(1, cert["iterations"]), solver.get("trace_max", 100_000)) + 1
    _require(rows == expected, f"trace has {rows} rows, expected {expected}")
    return {"iterations": cert["iterations"]}


def _check_axioms(cmd, rep, out_dir):
    r = rep["report"]
    _require(r["all_pass"] is True, "axioms do not all pass")
    _require(all(v["status"] == "PASS" for v in r["verdicts"].values()),
             "an axiom verdict is not PASS")
    _require(r["mode"] == cmd["expect"]["mode"], f"mode {r['mode']}")
    if "m" in cmd["expect"]:
        _require(r["quadruple_count"] == cmd["expect"]["m"] ** 4, "quadruple count")
    return {}


def _check_gauge(cmd, rep, out_dir):
    _require(rep["report"]["admissible"] is True, "gauge not admissible")
    return {}


_CHECKS = {"condition": _check_condition, "oracle": _check_oracle,
           "violate": _check_violate, "solve": _check_solve,
           "axioms": _check_axioms, "gauge": _check_gauge}


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_key(workload: str, set_index: int, cmd_name: str, filename: str) -> str:
    return f"{workload}/{set_index}/{cmd_name}/{filename}"


def check_command(cmd: dict, set_dir: str, exit_code: int, workload: str,
                  set_index: int, digests) -> dict:
    """Validate one finished command; raise CheckFailed on any mismatch.

    ``digests`` maps digest keys to the sha256 of the canonical output for
    the default seed, or is None when the seed has no recorded digests.
    Returns the work the command reports (triples, maps, iterations).
    """
    _require(exit_code == cmd["expect_exit"],
             f"exit code {exit_code}, expected {cmd['expect_exit']}")
    out_dir = os.path.join(set_dir, cmd["out_dir"])
    kind = cmd["cmd"]
    with open(os.path.join(out_dir, REPORT_FILES[kind][0])) as fh:
        rep = json.load(fh)
    work = _CHECKS[kind](cmd, rep, out_dir)
    if digests is not None:
        for fname in REPORT_FILES[kind]:
            key = digest_key(workload, set_index, cmd["name"], fname)
            want = digests.get(key)
            _require(want is not None, f"no recorded digest for {key}")
            got = file_digest(os.path.join(out_dir, fname))
            _require(got == want, f"{key}: sha256 {got[:12]} != recorded {want[:12]}")
    return work
