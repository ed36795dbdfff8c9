#!/usr/bin/env python3
"""Builds and runs bench_profile, the SKYPEER host wall-clock benchmark.

Run from the repository root:

  python3 bench/profile/run.py --workload NAME --seed S --seconds T --trace 0|1
      One run. The last line of stdout is the run's JSON result.
  python3 bench/profile/run.py --workload all [--seed S] [--trace 0|1] [--out DIR]
      Every workload in turn, one JSON file per run in DIR, then a table.
      With --trace 1 each workload also runs untraced, for the tracing
      overhead.
  python3 bench/profile/run.py --pairs N --parent DIR [--workload W] [--out DIR]
      N pairs of runs of the checkout at DIR and of this one, alternating
      which side runs first, then compare.py over the two sets.

The benchmark builds itself (CMake, Release) into .bench_build/profile at
the repository root on first use; later runs rebuild incrementally.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_build"
BUILD = OUT / "profile"
WORKLOADS = ["paper_uniform", "anti_deep", "paged_churn", "lossy_wide"]
BUILD_TIMEOUT_S = 850
# A run is set-up plus --seconds of measurement; this bounds the rest.
RUN_SLACK_S = 150


def build():
    """Configures and builds bench_profile; exits 1 on failure."""
    OUT.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "bench_profile"]]
    # Concurrent first runs in one checkout must not build over each other.
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit("bench_profile build timed out")
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.exit("bench_profile build failed: " + " ".join(step))
    return BUILD / "bench_profile"


def run_once(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench_profile --workload {workload} timed out")
    return done.returncode, done.stdout


def result_of(stdout):
    """The JSON result on the last line of a run's stdout, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def save(out_dir, workload, seed, result):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}.s{seed}.json"
    path.write_text(json.dumps(result) + "\n")


def run_all(args):
    exe = build()
    out = Path(args.out)
    status = 0
    rows = []
    for workload in WORKLOADS:
        code, stdout = run_once(exe, workload, args.seed, args.seconds,
                                args.trace)
        result = result_of(stdout)
        if code != 0 or result is None:
            sys.stdout.write(stdout)
            print(f"{workload}: exit {code}")
            status = 1
            continue
        save(out, workload, args.seed, result)
        metrics = result["metrics"]
        if args.trace:
            code, plain = run_once(exe, workload, args.seed, args.seconds, 0)
            untraced = result_of(plain) if code == 0 else None
            if untraced is None:
                print(f"{workload}: untraced run failed, exit {code}")
                status = 1
                continue
            traced_p50 = metrics["engine.query.p50_ms"]["value"]
            untraced_p50 = untraced["metrics"]["query_p50_ms"]["value"]
            metrics["trace.overhead_frac"] = {
                "value": traced_p50 / untraced_p50 - 1, "unit": "ratio"}
        failed_frac = result["failed"] / result["attempted"]
        rows.append((workload, "failed_frac", failed_frac, "ratio"))
        rows += [(workload, name, m["value"], m["unit"])
                 for name, m in metrics.items()]
    for workload, name, value, unit in rows:
        print(f"{workload:<14} {name:<44} {value:>16.6f} {unit}")
    return status


def run_pairs(args):
    parent = Path(args.parent).resolve()
    out = Path(args.out)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    sides = {"parent": parent, "change": ROOT}
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = [sys.executable, "bench/profile/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=sides[side],
                                      stdout=subprocess.PIPE, text=True)
                result = result_of(done.stdout)
                if done.returncode != 0 or result is None:
                    sys.exit(f"{side} {workload} seed {seed}: "
                             f"exit {done.returncode}")
                save(out / side, workload, seed, result)
    compare = [sys.executable, str(HERE / "compare.py"), str(out / "parent"),
               str(out / "change"), "--benchmark", str(ROOT / "BENCHMARK.json")]
    return subprocess.run(compare).returncode


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=str(OUT / "runs"))
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--parent")
    args = parser.parse_args()
    if args.pairs:
        if not args.parent:
            parser.error("--pairs needs --parent DIR")
        return run_pairs(args)
    if args.workload == "all":
        return run_all(args)
    exe = build()
    code, stdout = run_once(exe, args.workload, args.seed, args.seconds,
                            args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
