#!/usr/bin/env python3
"""Compares two sets of bench_profile runs against the bounds in BENCHMARK.json.

  python3 bench/profile/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds one JSON result per run, named <workload>.s<seed>.json
(run.py writes them); runs pair up by file name. For every workload and
metric it prints each side's median and quartiles, the share of pairs the
change wins (ties count for neither side), and a verdict:

  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  pass        the change's median is no worse than the parent's by more
              than the metric's bound, or every change run beats every
              parent run
  regress     the change's median is worse by more than the bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, so a regression of that size could not be seen
  -           a per-layer metric (no bound) without a gain

A change that fails more operations than the parent regresses too. The exit
status is 1 when anything regresses.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def win_share(parent, change, better):
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    return wins / len(parent)


def verdict(parent, change, better, bound):
    """Verdict for one metric on one workload; `bound` None: per-layer."""
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    improved = sign * (c_med - p_med) < 0
    if (improved and win_share(parent, change, better) >= WIN_SHARE
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain"
    if bound is None:
        return "-"
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "pass"
    if p_med == 0:
        return "pass" if c_med == 0 else "unresolved"
    if (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    worse = sign * (c_med - p_med) / abs(p_med)
    return "regress" if worse > bound else "pass"


def load(directory):
    """{file name: result} for every run in `directory`."""
    return {path.name: json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.s*.json"))}


def compare(parent_runs, change_runs, bench):
    """Rows (workload, metric, parent quartiles, change quartiles, wins,
    verdict) over the runs both sides share."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    by_workload = {}
    for name in sorted(parent_runs.keys() & change_runs.keys()):
        workload = name.split(".s")[0]
        by_workload.setdefault(workload, []).append(
            (parent_runs[name], change_runs[name]))
    rows = []
    for workload, pairs in by_workload.items():
        p_failed = sum(p["failed"] for p, _ in pairs)
        c_failed = sum(c["failed"] for _, c in pairs)
        rows.append((workload, "failed", (p_failed,) * 3, (c_failed,) * 3,
                     None, "regress" if c_failed > p_failed else "pass"))
        metrics = [m for m in pairs[0][0]["metrics"] if m in better]
        for metric in metrics:
            parent = [p["metrics"][metric]["value"] for p, _ in pairs]
            change = [c["metrics"][metric]["value"] for _, c in pairs]
            rows.append((workload, metric, quartiles(parent),
                         quartiles(change),
                         win_share(parent, change, better[metric]),
                         verdict(parent, change, better[metric],
                                 bounds.get(metric))))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=str(Path(__file__).resolve().parents[2] /
                                    "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.benchmark).read_text())
    rows = compare(load(args.parent), load(args.change), bench)
    if not rows:
        sys.exit("no runs in common")
    print(f"{'workload':<14} {'metric':<40} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>5}  verdict")
    for workload, metric, p, c, wins, outcome in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        share = "" if wins is None else f"{wins:.2f}"
        print(f"{workload:<14} {metric:<40} {fmt(p):>30} {fmt(c):>30} "
              f"{share:>5}  {outcome}")
    return 1 if any(row[5] == "regress" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
