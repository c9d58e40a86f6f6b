#!/usr/bin/env python3
"""Record the sha256 of every canonical report for the default seed.

    python3 perfbench/record_digests.py

Runs each workload's commands once on every input set of the default
seed, checks them, and writes ``perfbench/digests.json``.  The benchmark
then fails any default-seed command whose report differs by one byte.
Re-record only when a change is meant to alter report bytes.
"""
import json
import os
import sys

import run as bench
import workloads as wl


def main() -> int:
    digests = {}
    for workload in wl.WORKLOADS:
        run = bench.Run(workload, wl.DEFAULT_SEED)
        for k in range(wl.INPUT_SETS):
            inputs = run.inputs(k)
            bench.subprocess_pass(run, inputs)
            for cmd in inputs["commands"]:
                out_dir = os.path.join(inputs["dir"], cmd["out_dir"])
                for fname in wl.REPORT_FILES[cmd["cmd"]]:
                    key = wl.digest_key(workload, k, cmd["name"], fname)
                    digests[key] = wl.file_digest(os.path.join(out_dir, fname))
        if run.failed:
            print("\n".join(run.errors), file=sys.stderr)
            return 1
    bench.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {bench.DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
