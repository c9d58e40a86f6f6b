"""Byte-for-byte golden reports for a pinned matrix of CLI runs.

Each case runs ``gmetric.cli.main`` in a fresh directory and compares the
exit code and every report file it writes with the committed copy under
``tests/golden/<case>/``.  The matrix covers both arithmetic regimes, every
command, the solver's trace cap and the auxiliary-weight bound, so a
refactor that changes any verdict, number or byte shows up here.

To record the goldens again after an intended output change, run
``PYTHONPATH=src python tests/test_golden_reports.py`` and review the diff.
"""
import json
import os
import sys
from pathlib import Path

import pytest

from gmetric.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Metric tables written next to the configs; the space label in a report
# is the table's base name, so reports do not depend on the directory.
TABLES = {
    "m4.txt": "4\n0 1 3/2 2\n1 0 1 3/2\n3/2 1 0 1\n2 3/2 1 0\n",
    "m5.txt": ("5\n0 1 2 3/2 5/4\n1 0 3/2 2 7/4\n2 3/2 0 1 4/3\n"
               "3/2 2 1 0 5/3\n5/4 7/4 4/3 5/3 0\n"),
}

REPORTS = {
    "axioms": ("axioms.json",),
    "condition": ("condition.json",),
    "oracle": ("oracle.json",),
    "solve": ("solve.json", "trace.csv"),
    "gauge": ("gauge.json",),
    "violate": ("violate.json",),
}


def _table(name, construction):
    return {"metric_table": name, "construction": construction}


def _cond(space, smap, condition, count=1500, seed=7, rng=(0, 100)):
    return {"space": space, "map": smap, "condition": condition,
            "sampling": {"count": count, "range": list(rng), "seed": seed}}


# (case name, command, config, expected exit code)
CASES = [
    ("axioms-absmax", "axioms", {"space": "absmax"}, 0),
    ("axioms-absmax-sampled", "axioms",
     {"space": "absmax", "sampling": {"count": 8, "range": [0, 50], "seed": 3}}, 0),
    ("axioms-drop-z", "axioms", {"space": "drop-z"}, 1),
    ("axioms-max-table", "axioms", {"space": _table("m4.txt", "max")}, 0),
    ("condition-gauge", "condition",
     _cond("absmax", "moebius", {"id": "C-GAUGE", "gauge": "ratio1"}), 0),
    ("condition-q-fails", "condition",
     _cond("absmax", "moebius", {"id": "C-Q", "q": 0.9}, rng=(0, 0.1)), 1),
    ("condition-q-weight", "condition",
     _cond("absmax", "scale-0.5", {"id": "C-Q", "q": 0.75, "a": "reciprocal-cap-2"}), 0),
    ("condition-unit-weight-exact", "condition",
     _cond(_table("m5.txt", "perimeter"), "constant-1",
           {"id": "C-UNIT", "a": "constant-1/100"}, count=300), 0),
    ("condition-ext-i-float", "condition",
     _cond("absmax", "scale-0.5", {"id": "EXT-I", "alpha": 1.5}), 1),
    ("condition-ext-ii-float", "condition",
     _cond("absmax", "scale-0.5", {"id": "EXT-II", "beta": 0.75}), 1),
    ("condition-ext-iii-float", "condition",
     _cond("absmax", "moebius", {"id": "EXT-III", "delta": 0.9}), 0),
    ("condition-ext-i-exact", "condition",
     _cond(_table("m5.txt", "perimeter"), "constant-0",
           {"id": "EXT-I", "alpha": "2"}, count=300), 1),
    ("condition-ext-ii-exact", "condition",
     _cond(_table("m5.txt", "max"), "constant-0",
           {"id": "EXT-II", "beta": "3/4"}, count=300), 1),
    ("condition-ext-iii-exact", "condition",
     _cond(_table("m5.txt", "perimeter"), "identity",
           {"id": "EXT-III", "delta": "9/10"}, count=300), 1),
    ("oracle-thm-2.2", "oracle",
     {"space": "finite-uniform-4", "theorem": {"id": "THM-2.2", "q": "1/2"}}, 0),
    ("oracle-thm-2.5", "oracle",
     {"space": _table("m4.txt", "perimeter"), "theorem": {"id": "THM-2.5", "scope": "orbit"}}, 0),
    ("oracle-thm-2.10", "oracle",
     {"space": _table("m4.txt", "max"), "theorem": {"id": "THM-2.10", "gauge": "half"}}, 0),
    ("oracle-thm-2.12", "oracle",
     {"space": _table("m4.txt", "perimeter"), "theorem": {"id": "THM-2.12", "delta": "9/10"}}, 0),
    ("solve-certified", "solve",
     {"space": "absmax", "map": "scale-0.5",
      "solver": {"x0": 5.0, "eps_stop": 1e-12, "max_iter": 1000, "certified_q": 0.5}}, 0),
    ("solve-trace-cap", "solve",
     {"space": "absmax", "map": "moebius",
      "solver": {"x0": 1.0, "eps_stop": 1e-6, "max_iter": 100000, "trace_max": 40}}, 0),
    ("solve-trace-max-1", "solve",
     {"space": "absmax", "map": "moebius",
      "solver": {"x0": 2.0, "eps_stop": 1e-4, "max_iter": 1000, "trace_max": 1}}, 0),
    ("solve-max-iter-hit", "solve",
     {"space": "absmax", "map": "moebius",
      "solver": {"x0": 1.0, "eps_stop": 1e-12, "max_iter": 30, "certified_q": 0.9}}, 1),
    ("solve-max-iter-0", "solve",
     {"space": "absmax", "map": "scale-0.5",
      "solver": {"x0": 3.0, "eps_stop": 1e-6, "max_iter": 0, "certified_q": 0.5}}, 1),
    ("solve-fixed-at-x0", "solve",
     {"space": "absmax", "map": "identity",
      "solver": {"x0": 2.5, "eps_stop": 1e-6, "max_iter": 100}}, 0),
    ("solve-exact", "solve",
     {"space": _table("m5.txt", "max"), "map": "constant-3",
      "solver": {"x0": 0, "eps_stop": 1e-9, "max_iter": 10}}, 0),
    ("gauge-ratio1", "gauge", {"gauge": "ratio1"}, 0),
    ("gauge-identity-diag", "gauge",
     {"gauge": "identity-diag", "gauge_check": {"grid": [0.5, 1, 4], "n_max": 50}}, 1),
    ("violate-q-grid", "violate",
     {"space": "absmax", "map": "moebius", "condition": {"id": "C-Q", "q": 0.9},
      "violate": {"q_grid": [0.5, 0.9, 0.99]}}, 0),
    ("violate-none", "violate",
     {"space": "absmax", "map": "scale-0.5", "condition": {"id": "C-Q", "q": 0.9},
      "violate": {"scales": [10.0, 1.0, 0.1]}}, 1),
]


def run_case(work: Path, command: str, config: dict):
    """Run one case inside ``work``; return (exit code, {file: bytes})."""
    for name, text in TABLES.items():
        (work / name).write_text(text)
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = work / "out"
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
    finally:
        os.chdir(cwd)
    return code, {f: (out / f).read_bytes() for f in REPORTS[command]}


@pytest.mark.parametrize("case, command, config, expected_exit", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, capsys, case, command, config, expected_exit):
    code, files = run_case(tmp_path, command, config)
    assert code == expected_exit
    for name, data in files.items():
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name} differs"


def record() -> None:
    import tempfile
    for case, command, config, expected_exit in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, files = run_case(Path(tmp), command, config)
        if code != expected_exit:
            sys.exit(f"{case}: exit {code}, expected {expected_exit}")
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)


if __name__ == "__main__":
    record()
