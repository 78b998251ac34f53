#!/usr/bin/env python3
"""Build and run the BISRAMGEN benchmark.

Usage, from the repository root:

    python3 bisbench/run.py --workload fig6_signoff --seed 1 --seconds 28 --trace 0

Configures and builds bisbench/ (the library from src/ plus the
benchmark program) into .bench_build/, runs one workload and passes its
output through. The last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; its metric names are
checked against BENCHMARK.json ("end_to_end" for --trace 0, "per_layer"
for --trace 1). `--workload all` runs every workload untraced, one after
the other, and ends with a table of each workload's named figures.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(root, ".bench_build", "bisbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bisbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "bisbench")


def run_workload(root, binary, workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, result line, parsed)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", os.path.join(HERE, "expected.json"),
           "--work-dir", os.path.join(root, ".bench_build", "work")]
    if trace:
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.trace.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return lines[:-1], lines[-1], json.loads(lines[-1])


def check_result(result, expected_names):
    keys = sorted(result)
    if keys != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"result line has keys {keys}")
    names = sorted(result["metrics"])
    if names != sorted(expected_names):
        missing = sorted(set(expected_names) - set(names))
        extra = sorted(set(names) - set(expected_names))
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"missing {missing}, unexpected {extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build(root)
        workloads = [w["name"] for w in spec["workloads"]]
        section = "per_layer" if args.trace else "end_to_end"
        names = [m["name"] for m in spec[section]]
        todo = workloads if args.workload == "all" else [args.workload]
        if any(w not in workloads for w in todo):
            raise RuntimeError(f"unknown workload {args.workload}; "
                               f"known: {', '.join(workloads)}")
        results = []
        for w in todo:
            report, line, result = run_workload(root, binary, w, args.seed,
                                                args.seconds, args.trace)
            check_result(result, names)
            print("\n".join(report), flush=True)
            results.append((w, line, result))
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1

    if args.workload == "all":
        print("\nworkload         correct  attempted  failed  metrics")
        for w, _, r in results:
            ms = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                           for k, v in sorted(r["metrics"].items()))
            print(f"{w:<16} {str(r['correct']):<8} {r['attempted']:>9} "
                  f"{r['failed']:>7}  {ms}")
        total = {"correct": all(r["correct"] for _, _, r in results),
                 "attempted": sum(r["attempted"] for _, _, r in results),
                 "failed": sum(r["failed"] for _, _, r in results),
                 "metrics": {}}
        print(json.dumps(total))
    else:
        print(results[0][1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
