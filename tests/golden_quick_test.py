#!/usr/bin/env python3
"""Golden gate for the quick figure, table and ablation CSVs.

  golden_quick_test.py --bin-dir BUILD --golden tests/golden/quick \
                       --work DIR [--force-scalar]

Runs the 19 figure, table and ablation benches at `--quick --threads 2`
(optionally `--force-scalar`) into DIR and diffs every CSV against the
golden copy byte for byte, after masking the timing columns (`*_ms`,
`build_ms`, `ms_per_pair`, `ms_per_1k`) by header name. Fails when a CSV
differs, is missing on either side, or a bench exits non-zero.

A golden file may be regenerated only together with a CHANGES.md line
that names it and says why its numbers moved.
"""
import argparse
import csv
import io
import os
import subprocess
import sys

BENCHES = [
    "bench_ablation",
    "bench_ext_correlation",
    "bench_fig04_munich",
    "bench_fig05_accuracy",
    "bench_fig06_proud_pr",
    "bench_fig07_dust_pr",
    "bench_fig08_mixed_sigma",
    "bench_fig09_mixed_dist",
    "bench_fig10_wrong_sigma",
    "bench_fig11_time_stddev",
    "bench_fig12_time_length",
    "bench_fig13_window",
    "bench_fig14_decay",
    "bench_fig15_uma_uniform",
    "bench_fig16_uma_normal",
    "bench_fig17_uma_exponential",
    "bench_supp_dtw",
    "bench_supp_topk_instability",
    "bench_table_chisquare",
]

TIMING_COLUMNS = {"build_ms", "ms_per_pair", "ms_per_1k"}


def is_timing(column):
    return column.endswith("_ms") or column in TIMING_COLUMNS


def masked(path):
    """The CSV's rows with every timing column replaced by '*'."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return rows
    timing = [i for i, name in enumerate(rows[0]) if is_timing(name)]
    for row in rows[1:]:
        for i in timing:
            if i < len(row):
                row[i] = "*"
    return rows


def render(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin-dir", required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--force-scalar", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.work, exist_ok=True)
    for name in os.listdir(args.work):
        if name.endswith(".csv"):
            os.remove(os.path.join(args.work, name))

    failures = []
    for bench in BENCHES:
        command = [os.path.join(args.bin_dir, bench), "--quick", "--threads",
                   "2", "--out", args.work]
        if args.force_scalar:
            command.append("--force-scalar")
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if run.returncode != 0:
            failures.append(f"{bench} exited {run.returncode}:\n{run.stdout}")

    golden = sorted(n for n in os.listdir(args.golden) if n.endswith(".csv"))
    produced = sorted(n for n in os.listdir(args.work) if n.endswith(".csv"))
    for name in sorted(set(produced) - set(golden)):
        failures.append(f"{name}: produced but has no golden copy")
    for name in golden:
        if name not in produced:
            failures.append(f"{name}: golden but not produced")
            continue
        want = render(masked(os.path.join(args.golden, name)))
        got = render(masked(os.path.join(args.work, name)))
        if want != got:
            diff = [f"  golden: {w}\n  got:    {g}"
                    for w, g in zip(want.splitlines(), got.splitlines())
                    if w != g]
            failures.append(f"{name} differs:\n" + "\n".join(diff[:5]))

    mode = "force-scalar" if args.force_scalar else "native"
    if failures:
        print(f"golden gate ({mode}) FAILED:")
        for failure in failures:
            print(failure)
        return 1
    print(f"golden gate ({mode}): {len(golden)} CSVs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
