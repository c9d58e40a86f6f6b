#!/usr/bin/env python3
"""gmetric benchmark: drives the real CLI on seeded inputs.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Without ``--workload`` every workload runs
in turn.  The load is a closed loop with one client: each CLI command runs
in a fresh ``python3 -m gmetric.cli`` process, and the next one starts
only after it has exited.  The benchmark repeats the workload's command
list (one pass) for as many whole passes as fit in ``--seconds``, checks
every output, and reports the mean over passes of the pass time, the
median set-up time and the median peak RSS; the three rates pool the
work and time of all passes, because each pass has its own inputs.

``--trace 0`` reports the end-to-end metrics from those subprocess runs,
rescaled to a reference machine speed (see ``REFERENCE_S``).
``--trace 1`` instead runs the same commands in this process through
``gmetric.cli.main``, alternating untraced and traced passes, and reports
the per-layer metrics of the traced passes (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every command exited as expected and passed its output
checks; it is 2, with no result printed, when the sources are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "triples_per_s": ("1/s", "higher"),
    "maps_per_s": ("1/s", "higher"),
    "iterations_per_s": ("1/s", "higher"),
}

_WORK_DONE = {"sampling.triple_stream.triples", "dynamics.solve_picard.iterations",
              "conditions.verdicts", "conditions.fails", "oracle.maps_enumerated",
              "oracle.maps_satisfying"}


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")) or name == "trace_overhead":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if "_per_" in name:
        return "ratio"
    return "count"


PER_LAYER_NAMES = (
    "cli.resolve.s",
    "spaces.normalize_point.calls", "spaces.normalize_point.s",
    "spaces.g.calls", "spaces.g.s", "spaces.check_axioms.s",
    "sampling.triple_stream.triples", "sampling.triple_stream.s",
    "sampling.draws_per_triple",
    "dynamics.solve_picard.s", "dynamics.solve_picard.iterations",
    "dynamics.orbit.s", "dynamics.orbit.steps", "dynamics.map_steps",
    "dynamics.write_trace_csv.s", "dynamics.write_trace_csv.bytes",
    "conditions.certify_on_samples.s", "conditions.verdicts", "conditions.fails",
    "conditions.raw_g_per_verdict", "conditions.certify_on_samples.alloc_peak_mb",
    "oracle.exhaustive_theorem_check.s", "oracle.maps_enumerated",
    "oracle.maps_satisfying", "oracle.raw_g_calls",
    "reports.render_report.s", "reports.write_report.s", "reports.report_bytes",
    "cli.self_s", "spaces.self_s", "sampling.self_s", "dynamics.self_s",
    "conditions.self_s", "oracle.self_s", "reports.self_s",
    "trace_overhead",
)
PER_LAYER = {n: (_layer_unit(n), "higher" if n in _WORK_DONE else "lower")
             for n in PER_LAYER_NAMES}

PROBES_PER_PASS = 2

# On the 2-vCPU VM this benchmark was written on, the CPU speed swings
# between two levels about 1.7x apart every few seconds, and the mix drifts
# by 15-25 % between runs minutes apart.
# Every command slows with it, so the benchmark times a fixed pure-Python
# loop in its own process before each child starts, and rescales the
# end-to-end times and rates of a run to a machine on which that loop takes
# REFERENCE_S.  The loop runs while no child does, so the program under test
# cannot change it.  The commands slow less than the loop does: across 40 s
# windows their log time moved 0.7-0.8 times as far as the loop's, so the
# rescaling uses the loop's speed to the power REFERENCE_ELASTICITY.
REFERENCE_S = 0.04
REFERENCE_ELASTICITY = 0.75
REFERENCE_ITERATIONS = 6000


def reference_loop():
    """Fixed interpreter work in the style of gmetric's own: exact Fraction
    arithmetic behind a dict memo, and float steps through abs and max."""
    acc, memo, x = Fraction(0), {}, 0.5
    for i in range(REFERENCE_ITERATIONS):
        q = Fraction(i % 97 + 1, i % 13 + 2)
        key = (i % 211, i % 7)
        if key not in memo:
            memo[key] = q * q - q
        acc += memo[key]
        x = abs(x / (x + 1.0) - 0.25) + max(0.1, x * 0.5)
    return acc, x


DIGESTS_FILE = HERE / "digests.json"


def summarize(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    q1, q3 = (med, med) if len(values) < 2 else statistics.quantiles(values, n=4)[::2]
    return {"value": med, "median": med, "q1": q1, "q3": q3, "n": len(values)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    """One workload run: its input sets, tallies and failure log."""

    def __init__(self, workload: str, seed: int, digests=None, directory=None):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.dir = Path(directory or WORK / workload)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.sets = {}
        self.reference = []  # reference_loop times, one per child process
        shutil.rmtree(self.dir, ignore_errors=True)

    def inputs(self, pass_index: int) -> dict:
        k = pass_index % wl.INPUT_SETS
        if k not in self.sets:
            self.sets[k] = wl.make_input_set(self.workload, self.seed, k,
                                             str(self.dir / f"set{k}"))
        return self.sets[k]

    def record(self, cmd: dict, inputs: dict, exit_code: int) -> dict:
        """Check one command's outputs; a failure counts toward ``failed``."""
        self.attempted += 1
        try:
            return wl.check_command(cmd, inputs["dir"], exit_code, self.workload,
                                    inputs["index"], self.digests)
        except (wl.CheckFailed, OSError, ValueError, KeyError, TypeError) as e:
            self.failed += 1
            self.errors.append(f"set{inputs['index']}/{cmd['name']}: {e}")
            return {}


def _fresh_out(inputs: dict, cmd: dict) -> None:
    out = os.path.join(inputs["dir"], cmd["out_dir"])
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)


def run_process(argv, cwd, log_path, reference=None):
    """Run one child to completion; return (exit code, wall s, peak RSS MB).
    With a ``reference`` list, first time ``reference_loop`` into it."""
    if reference is not None:
        t0 = time.perf_counter()
        reference_loop()
        reference.append(time.perf_counter() - t0)
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, dt, usage.ru_maxrss / 1024


def cli_argv(cmd: dict) -> list:
    return [cmd["cmd"], "--config", cmd["config_path"], "--out", cmd["out_dir"]]


def pass_schedule(commands: list) -> list:
    """The command list with each command ``repeat`` times, its runs spread
    evenly over the pass: run ``j`` of command ``i`` of ``n`` sits at
    ``(j + (i + 0.5) / n) / repeat`` of the way through."""
    n = len(commands)
    slots = [((j + (i + 0.5) / n) / cmd["repeat"], i, cmd)
             for i, cmd in enumerate(commands) for j in range(cmd["repeat"])]
    return [cmd for _, _, cmd in sorted(slots, key=lambda s: s[:2])]


def subprocess_pass(run: Run, inputs: dict) -> dict:
    """Run the pass schedule once, one process at a time."""
    p = dict.fromkeys(("wall", "rss", "triples", "condition_s", "maps", "oracle_s",
                       "iterations", "solve_s"), 0.0)
    for cmd in pass_schedule(inputs["commands"]):
        _fresh_out(inputs, cmd)
        rc, dt, rss = run_process([sys.executable, "-m", "gmetric.cli"] + cli_argv(cmd),
                                  inputs["dir"], os.path.join(inputs["dir"], cmd["name"] + ".log"),
                                  run.reference)
        work = run.record(cmd, inputs, rc)
        p["wall"] += dt
        p["rss"] = max(p["rss"], rss)
        if cmd["cmd"] == "condition":
            p["triples"] += work.get("triples", 0)
            p["condition_s"] += dt
        elif cmd["cmd"] == "oracle":
            p["maps"] += work.get("maps", 0)
            p["oracle_s"] += dt
        elif cmd["cmd"] == "solve":
            p["iterations"] += work.get("iterations", 0)
            p["solve_s"] += dt
    return p


def setup_probe(run: Run, inputs: dict, cmd: dict) -> float:
    argv = [sys.executable, str(HERE / "probe.py"), cmd["config_path"]]
    rc, dt, _ = run_process(argv, inputs["dir"], os.path.join(inputs["dir"], "probe.log"),
                            run.reference)
    run.attempted += 1
    if rc != 0:
        run.failed += 1
        run.errors.append(f"set-up probe on {cmd['name']} exited {rc}")
    return dt


def measure_end_to_end(run: Run, seconds: float) -> dict:
    inputs = run.inputs(0)
    setup_probe(run, inputs, inputs["commands"][0])  # warm the bytecode cache
    run.attempted, run.failed, run.errors, run.reference = 0, 0, [], []
    passes, probes = [], []
    start = time.perf_counter()
    i = 0
    while True:
        inputs = run.inputs(i)
        passes.append(subprocess_pass(run, inputs))
        for j in range(PROBES_PER_PASS):
            cmds = inputs["commands"]
            probes.append(setup_probe(run, inputs, cmds[(i * PROBES_PER_PASS + j) % len(cmds)]))
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:  # the next pass would not fit
            break
    out = {
        "setup_s": summarize(probes),
        "wall_s": summarize(p["wall"] for p in passes),
        "peak_rss_mb": summarize(p["rss"] for p in passes),
    }
    # The machine's speed swings between two levels every few seconds, so
    # the mean over passes is steadier than their median.
    out["wall_s"]["value"] = statistics.fmean(p["wall"] for p in passes)
    for name, work, spent in (("triples_per_s", "triples", "condition_s"),
                              ("maps_per_s", "maps", "oracle_s"),
                              ("iterations_per_s", "iterations", "solve_s")):
        out[name] = summarize(p[work] / p[spent] for p in passes)
        out[name]["value"] = sum(p[work] for p in passes) / sum(p[spent] for p in passes)
    return rescale(out, statistics.fmean(run.reference))


def rescale(stats: dict, reference_mean: float) -> dict:
    """Rescale times and rates measured while ``reference_loop`` took
    ``reference_mean`` s to a machine on which it takes ``REFERENCE_S``.
    Each summary keeps its measured value as ``raw``."""
    speed = (reference_mean / REFERENCE_S) ** REFERENCE_ELASTICITY
    for name, s in stats.items():
        s["raw"] = s["value"]
        if name == "peak_rss_mb":
            continue
        factor = speed if name.endswith("_per_s") else 1 / speed
        for key in ("value", "median", "q1", "q3"):
            s[key] *= factor
    return stats


def import_gmetric():
    sys.path.insert(0, str(SRC))
    import gmetric.cli
    if Path(gmetric.cli.__file__).resolve().parent != (SRC / "gmetric").resolve():
        raise SystemExit(f"gmetric imported from {gmetric.cli.__file__}, not {SRC}")
    return gmetric.cli


def inprocess_pass(run: Run, cli, inputs: dict, tr=None) -> float:
    """Run the command list through ``cli.main`` in this process; return the
    summed command time.  With a tracer the layers are wrapped meanwhile."""
    total = 0.0
    patched = tracer.install(tr) if tr is not None else contextlib.nullcontext()
    cwd = os.getcwd()
    os.chdir(inputs["dir"])
    try:
        with open(os.devnull, "w") as sink, patched:
            for cmd in inputs["commands"]:
                _fresh_out(inputs, cmd)
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        rc = cli.main(cli_argv(cmd))
                except Exception as e:  # a crash is a failed command, not a crashed benchmark
                    rc = f"crash: {type(e).__name__}: {e}"
                total += time.perf_counter() - t0
                run.record(cmd, inputs, rc)
    finally:
        os.chdir(cwd)
    return total


def measure_per_layer(run: Run, seconds: float) -> dict:
    cli = import_gmetric()
    start = time.perf_counter()
    alloc = tracer.Tracer(measure_alloc=True)
    inprocess_pass(run, cli, run.inputs(0), alloc)
    samples, overheads = [], []
    loop_start = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - start
                     + (time.perf_counter() - loop_start) / i <= seconds):
        inputs = run.inputs(i + 1)
        tr = tracer.Tracer()
        if i % 2:
            traced = inprocess_pass(run, cli, inputs, tr)
            plain = inprocess_pass(run, cli, inputs)
        else:
            plain = inprocess_pass(run, cli, inputs)
            traced = inprocess_pass(run, cli, inputs, tr)
        samples.append(tracer.layer_metrics(tr))
        overheads.append(traced - plain)
        i += 1
    (run.dir / "spans.json").write_text(json.dumps(tr.spans))
    out = {name: summarize(s[name] for s in samples) for name in samples[0]}
    out["conditions.certify_on_samples.alloc_peak_mb"] = summarize(
        [tracer.alloc_peak_mb(alloc)])
    out["trace_overhead"] = summarize(overheads)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    digests = None
    if seed == wl.DEFAULT_SEED and DIGESTS_FILE.exists():
        digests = json.loads(DIGESTS_FILE.read_text())
    run = Run(workload, seed, digests)
    stats = measure_per_layer(run, seconds) if trace else measure_end_to_end(run, seconds)
    specs = PER_LAYER if trace else END_TO_END
    return run, {name: (stats[name], specs[name][0]) for name in specs}


def print_report(workload: str, seed: int, run: Run, metrics: dict) -> None:
    print(f"== {workload} (seed {seed})")
    for name, (s, unit) in metrics.items():
        raw = f" measured={s['raw']:.6g}" if "raw" in s else ""
        print(f"  {name:<44} {s['value']:>14.6g} {unit:<6} median={s['median']:.6g} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}{raw}")
    if run.reference:
        print(f"  {'reference loop (mean)':<44} {statistics.fmean(run.reference):>14.6g} s      "
              f"n={len(run.reference)}; times and rates above are rescaled to {REFERENCE_S} s")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} ratio  "
          f"({run.failed} of {run.attempted} commands)")
    for k, inputs in sorted(run.sets.items()):
        if not inputs["tables"]:
            continue
        parts = [f"{t['construction']} m={t['m']}" for t in inputs["tables"]]
        for cmd in inputs["commands"]:
            if cmd["cmd"] == "oracle" and cmd["name"] != "control-oracle":
                path = os.path.join(inputs["dir"], cmd["out_dir"], "oracle.json")
                with contextlib.suppress(OSError, ValueError, KeyError):
                    with open(path) as fh:
                        r = json.load(fh)["report"]
                    parts.append(f"{cmd['name']} satisfying={r['maps_satisfying_hypothesis']}")
        print(f"  input set{k}: " + ", ".join(parts))
    for e in run.errors[:10]:
        print(f"  FAILED {e}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), default=None,
                        help="one workload (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmetric" / "cli.py").is_file():
        print(f"error: no gmetric sources under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    attempted = failed = 0
    result_metrics = {}
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(name, args.seed, run, metrics)
        attempted += run.attempted
        failed += run.failed
        prefix = "" if args.workload else f"{name}."
        for metric, (s, unit) in metrics.items():
            result_metrics[prefix + metric] = {"value": s["value"], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
