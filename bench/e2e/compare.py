#!/usr/bin/env python3
"""Compare end-to-end benchmark runs of a parent commit and a change.

  compare.py [--same-code] [--spec BENCHMARK.json] PARENT_RUNS... -- CHANGE_RUNS...

Each run is a bench_results.json written by `bench/e2e/run.sh` (end-to-end
mode). Runs pair up in the order given: run the two commits alternately,
parent first in one pair and the change first in the next, and list each
side's files in run order.

For every (workload, end-to-end metric of BENCHMARK.json):
  * improved   - at least 10 pairs, the change wins at least 9 in 10 (ties
                 count for neither side), and the medians differ by more
                 than the parent's interquartile range;
  * regressed  - the change's median is worse than the parent's by more
                 than the metric's bound;
  * unresolved - the parent's own spread (IQR / median) exceeds the bound
                 and not every change run beats every parent run;
  * unchanged  - otherwise.
Exit status 1 when any metric regressed or any run failed its checks.

With --same-code both sides are runs of one commit: they agree when no
metric improved or regressed and every median moved by less than its bound.
Exit status 1 when they disagree.
"""
import argparse
import json
import statistics
import sys


def load_runs(paths):
    """{workload: [metrics dict per run]} plus the list of failed runs."""
    runs, failed = {}, []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        if data.get("trace"):
            sys.exit(f"compare.py: {path} is a per-layer (--trace) run")
        for workload, result in data["workloads"].items():
            if not result["correct"]:
                failed.append(f"{path}:{workload}")
            runs.setdefault(workload, []).append(
                {k: v["value"] for k, v in result["metrics"].items()})
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """(verdict, whether the medians are within the bound, report columns)
    for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = (p3 - p1) / pm
    delta = (cm - pm) / pm
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    improved = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
                sign * (cm - pm) > p3 - p1)
    if -sign * delta > bound:
        name = "regressed"
    elif improved:
        name = "improved"
    elif spread > bound and not min(sign * c for c in change) > max(
            sign * p for p in parent):
        name = "unresolved"
    else:
        name = "unchanged"
    row = (f"{pm:11.5g} [{p1:.5g}, {p3:.5g}]", f"{cm:11.5g} [{c1:.5g}, {c3:.5g}]",
           f"{delta:+8.2%}", f"{spread:7.2%}", f"{wins}/{len(pairs)}")
    return name, abs(delta) <= bound, row


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--same-code", action="store_true")
    parser.add_argument("--spec", default="BENCHMARK.json")
    parser.add_argument("parent", nargs="+")
    args = parser.parse_args(argv[:split])
    change_paths = argv[split + 1:]
    if not change_paths:
        sys.exit("compare.py: no change runs after --")
    with open(args.spec) as f:
        spec = json.load(f)

    parent, parent_failed = load_runs(args.parent)
    change, change_failed = load_runs(change_paths)
    bad = False
    for run in parent_failed + change_failed:
        print(f"FAILED CHECKS: {run}")
        bad = True

    layout = "{:20} {:16} {:>34} {:>34} {:>8} {:>7} {:>6}  {}"
    print(layout.format("workload", "metric", "parent median [q1, q3]",
                        "change median [q1, q3]", "delta", "spread", "wins",
                        "verdict"))
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:20} missing on one side")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r[name] for r in parent[workload]]
            c = [r[name] for r in change[workload]]
            v, within_bound, row = verdict(p, c, metric["better"],
                                           metric["bound"])
            if args.same_code:
                agree = within_bound and v in ("unchanged", "unresolved")
                v = "agree" if agree else f"DISAGREE ({v})"
                bad |= not agree
            else:
                bad |= v == "regressed"
            print(layout.format(workload, name, *row, v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
