#!/usr/bin/env python3
"""End-to-end PGO benchmark: builds perfbench/pgo_bench from source and runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and pgo_bench under .bench_build/perfbench; later runs reuse it.

Workloads (see pgo_bench.cpp for what each exercises):
    server_hhvm   plain, AutoFDO and CSSPGO builds of the HHVM preset
    client_clang  plain and CSSPGO builds of the ClangProxy preset
    fleet_ingest  the continuous-profiling service over a drifting fleet

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced replay and writes its spans as Chrome trace-event JSON
to .bench_build/perfbench/traces/. Every run checks the program's outputs
against reference.json (exit values of every seed and variant, fleet store
hashes) where the reference covers the seed; each mismatch is a failed
operation. The last stdout line is the result as one JSON object.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0 \\
        --update-reference

records the run's outputs in reference.json instead of checking them.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("server_hhvm", "client_clang", "fleet_ingest")
# pgo_bench overshoots --seconds by at most one unit of work (one
# experiment, a few seconds); this bounds a hung run.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "pgo_bench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return BUILD / "pgo_bench"


def check_reference(workload, outputs, update):
    """Returns (checked, mismatches, unchecked) against reference.json."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table = ref.setdefault("workloads", {}).setdefault(workload, {})
    checked = mismatches = unchecked = 0
    for kind, entries in outputs.items():
        known = table.setdefault(kind, {})
        for key, value in entries.items():
            if update:
                known[key] = value
                continue
            if key not in known:
                unchecked += 1
                continue
            expect = known[key]
            pairs = (zip(expect.values(), (value.get(k) for k in expect))
                     if isinstance(expect, dict) else zip(expect, value))
            for want, got in pairs:
                checked += 1
                if want != got:
                    mismatches += 1
                    print(f"run.py: {workload} {kind} {key}: expected "
                          f"{want}, got {got}", file=sys.stderr)
    if update:
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return checked, mismatches, unchecked


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"pgo_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        die(f"pgo_bench failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    checked, mismatches, unchecked = check_reference(
        args.workload, raw["outputs"], args.update_reference)
    print(f"[reference] {checked} outputs checked, {mismatches} mismatched, "
          f"{unchecked} entries not covered by reference.json")
    attempted = raw["attempted"]
    failed = min(attempted, raw["failed"] + mismatches)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": raw["metrics"]}))


if __name__ == "__main__":
    main()
