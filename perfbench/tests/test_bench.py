"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    for section, ours in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == ours
        for name in listed:
            assert NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]}.isdisjoint(m["name"] for m in spec["per_layer"])


def test_inputs_are_seeded_and_valid(tmp_path):
    a = wl.make_input_set("exact-finite", 7, 3, str(tmp_path / "a"))
    b = wl.make_input_set("exact-finite", 7, 3, str(tmp_path / "b"))
    c = wl.make_input_set("exact-finite", 8, 3, str(tmp_path / "c"))
    for t in a["tables"]:
        text = (tmp_path / "a" / t["file"]).read_text()
        assert text == (tmp_path / "b" / t["file"]).read_text()
        assert int(text.split()[0]) == t["m"]
    assert [cmd["config"] for cmd in a["commands"]] == [cmd["config"] for cmd in b["commands"]]
    assert [cmd["config"] for cmd in a["commands"]] != [cmd["config"] for cmd in c["commands"]]
    values = (tmp_path / "a" / "max-m16.txt").read_text().split()[1:]
    off_diagonal = [Fraction(v) for i, v in enumerate(values) if i // 16 != i % 16]
    assert all(1 <= v <= 2 for v in off_diagonal)


def _gauge_run(tmp_path, exit_code, digests):
    """A Run holding one finished gauge command with a valid report."""
    run = bench.Run("picard-iterate", wl.DEFAULT_SEED, digests, directory=tmp_path)
    cmd = {"name": "gauge-admissible", "cmd": "gauge", "config": {"gauge": "ratio1"},
           "expect_exit": 0, "expect": {}, "out_dir": os.path.join("out", "g")}
    inputs = {"dir": str(tmp_path), "index": 0, "commands": [cmd], "tables": []}
    out = tmp_path / "out" / "g"
    out.mkdir(parents=True)
    (out / "gauge.json").write_text('{"report": {"admissible": true}}\n')
    run.record(cmd, inputs, exit_code)
    return run, wl.digest_key("picard-iterate", 0, "gauge-admissible", "gauge.json"), out


def test_correct_output_is_not_a_failure(tmp_path):
    run, key, out = _gauge_run(tmp_path, 0, None)
    assert (run.attempted, run.failed) == (1, 0)
    digest = wl.file_digest(str(out / "gauge.json"))
    run, _, _ = _gauge_run(tmp_path / "again", 0, {key: digest})
    assert (run.attempted, run.failed) == (1, 0)


def test_tampered_digest_raises_failed_ratio(tmp_path):
    run, _, _ = _gauge_run(tmp_path, 0, {
        wl.digest_key("picard-iterate", 0, "gauge-admissible", "gauge.json"): "0" * 64})
    assert (run.attempted, run.failed) == (1, 1)


def test_wrong_exit_code_raises_failed_ratio(tmp_path):
    run, _, _ = _gauge_run(tmp_path, 1, None)
    assert (run.attempted, run.failed) == (1, 1)


def test_broken_invariant_is_a_failure(tmp_path):
    cmd = {"name": "c", "cmd": "condition", "expect_exit": 0, "expect": {"fails": "none"},
           "config": {"sampling": {"count": 5}}, "out_dir": "out"}
    (tmp_path / "out").mkdir()
    cert = {"checked": 5, "holds": 4, "fails": 0, "holds_strict": 4, "holds_weak": 0,
            "vacuous": 0, "worst": []}
    (tmp_path / "out" / "condition.json").write_text(json.dumps({"certificate": cert}))
    with pytest.raises(wl.CheckFailed, match="holds"):
        wl.check_command(cmd, str(tmp_path), 0, "sampled-real", 0, None)


def test_rescale_divides_times_and_multiplies_rates_by_machine_speed():
    stats = {name: bench.summarize([2.0]) for name in bench.END_TO_END}
    out = bench.rescale(stats, 2 * bench.REFERENCE_S)  # the loop runs at half speed
    speed = 2 ** bench.REFERENCE_ELASTICITY
    assert out["wall_s"]["value"] == out["setup_s"]["q3"] == pytest.approx(2.0 / speed)
    assert out["triples_per_s"]["value"] == out["iterations_per_s"]["median"] \
        == pytest.approx(2.0 * speed)
    assert out["peak_rss_mb"]["value"] == 2.0
    assert all(s["raw"] == 2.0 for s in out.values())


def test_pass_schedule_spreads_repeated_commands():
    cmds = [{"name": n, "repeat": r} for n, r in (("a", 1), ("b", 1), ("c", 2))]
    assert [c["name"] for c in bench.pass_schedule(cmds)] == ["a", "c", "b", "c"]


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_never_exceeds_span_time():
    tr = tracer.Tracer()
    leaf = tr.wrap(lambda: _busy(0.002), "spaces.g", span=False)

    def mid_body():
        for _ in range(3):
            leaf()
        _busy(0.001)

    mid = tr.wrap(mid_body, "conditions.mid")

    def top_body():
        mid()
        mid()
        _busy(0.001)

    tr.wrap(top_body, "cli.main")()
    for name in tr.calls:
        assert 0 <= tr.self_time[name] <= tr.total[name]
    for duration, own in tr.span_self_times():
        assert 0 <= own <= duration
    assert sum(tr.layer_self.values()) == pytest.approx(tr.total["cli.main"])
    assert tr.calls == {"spaces.g": 6, "conditions.mid": 2, "cli.main": 1}
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("cli.main", -1), ("conditions.mid", 0), ("conditions.mid", 0)]


def test_tracer_counts_a_real_command_and_restores_names(tmp_path):
    cli = bench.import_gmetric()
    import gmetric.conditions
    originals = (cli.main, cli.solve_picard, gmetric.conditions.raw_g)
    run = bench.Run("picard-iterate", 1, None, directory=tmp_path)
    inputs = run.inputs(0)
    inputs = dict(inputs, commands=[c for c in inputs["commands"]
                                    if c["name"] in ("scale-solve", "control-condition")])
    tr = tracer.Tracer(measure_alloc=True)
    bench.inprocess_pass(run, cli, inputs, tr)
    assert (run.attempted, run.failed) == (2, 0), run.errors
    assert (cli.main, cli.solve_picard, gmetric.conditions.raw_g) == originals
    m = tracer.layer_metrics(tr)
    assert m["conditions.verdicts"] == m["sampling.triple_stream.triples"] == 10_000
    assert m["sampling.draws_per_triple"] == pytest.approx(3 / (4 / 5), abs=0.05)  # x=y redraws
    assert m["dynamics.solve_picard.iterations"] > 0 and m["spaces.g.calls"] > 0
    assert tracer.alloc_peak_mb(tr) > 0
    assert set(m) | {"conditions.certify_on_samples.alloc_peak_mb", "trace_overhead"} \
        == set(bench.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampled-real",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
