#!/usr/bin/env python3
"""Build and run the keybridge benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-x1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload prints its metrics and, as the last line, one JSON result:
the `end_to_end` metrics of BENCHMARK.json with `--trace 0`, its
`per_layer` metrics with `--trace 1`. `--workload all` runs every workload,
each in its own process, untraced (hot-x1 with its knee search,
sharded-x10 with its capacity probe) and then traced, and prints what
tracing costs per workload. The benchmark is
built from source with cargo into $CARGO_TARGET_DIR (default
`.bench_build`).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
# A single run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: stdout ends with the result line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, state_dir, workload, seed, seconds, trace, knee):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--knee", str(knee), "--state-dir", state_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        sys.stdout.write(out)
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124, ""
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode, done.stdout


def workload_names():
    try:
        with open(BENCHMARK_JSON) as f:
            return [w["name"] for w in json.load(f)["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"perfbench: cannot read the workloads of BENCHMARK.json: {e}")


def metric_of(output, name):
    """The value of metric `name` as a run printed it, or None."""
    for line in (output or "").splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            return float(parts[1])
    return None


def main():
    workloads = workload_names()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--knee", type=int, choices=[0, 1], default=0,
                   help="hot-x1: also search the capacity knee; "
                        "sharded-x10: also measure the saturated capacity")
    args = p.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    state_dir = os.path.join(target_dir, "perfbench-state")

    if args.workload != "all":
        code, _ = run_one(binary, state_dir, args.workload, args.seed,
                          args.seconds, args.trace, args.knee)
        sys.exit(code)

    # The load window of a traced run runs no tracing code: spans are
    # replayed after it. Tracing costs the extra post-load work, the
    # traced run's check CPU per operation minus the untraced run's.
    worst = 0
    summary = []
    check = "perfbench.check_cpu_ms_per_op"
    for w in workloads:
        knee = int(w in ("hot-x1", "sharded-x10"))
        code0, plain = run_one(binary, state_dir, w, args.seed, args.seconds,
                               0, knee)
        code1, traced = run_one(binary, state_dir, w, args.seed,
                                args.seconds, 1, 0)
        worst = max(worst, code0, code1)
        base = metric_of(plain, check)
        with_trace = metric_of(traced, check)
        if base is not None and with_trace is not None:
            summary.append(
                f"  {w:<12} {check} {base:.4f} untraced, {with_trace:.4f} "
                f"traced: tracing costs {with_trace - base:+.4f} ms per op")
    print("tracing overhead (post-load work, traced minus untraced run):")
    print("\n".join(summary) if summary else "  (no complete pair)")
    sys.exit(worst)


if __name__ == "__main__":
    main()
