#!/usr/bin/env python3
"""Bench-regression gate for the shared-engine hot paths and SIMD kernels.

Compares a fresh ``bench_micro_kernels --benchmark_format=json`` run against
the committed ``BENCH_uncertain_baseline.json`` and fails (exit 1) when:

* either JSON was produced by a debug build — ``bench_micro_kernels`` emits
  its own ``library_build_type`` via ``benchmark::AddCustomContext`` after
  the stock key describing the google-benchmark library's build, and
  ``json.load`` keeps the last duplicate key, so the value seen here is the
  benchmark binary's actual build type. Debug timings gate nothing and a
  baseline recorded from one would wave real regressions through;
* an engine path worsened more than ``--max-regression`` (default 25%)
  against the baseline's engine-vs-scalar cpu-time ratio. Ratios, not
  absolute times: CI runners and the baseline machine differ in absolute
  speed, but a genuine regression (say, an accidental per-sweep repack)
  moves the ratio on any machine;
* an AVX2 kernel's speedup over the scalar reference fell below its
  per-pair floor (>=3x on the blocked Euclidean 1-vs-all at length 1024,
  L2-resident candidate block; >=1.5x on the closed-form DUST 1-vs-all at
  length 1024). Skipped with a warning when the current run reports
  ``uts_simd_level`` other than ``avx2`` (hardware without AVX2+FMA cannot
  measure the pair);
* a kernel's ``peak_fraction`` bandwidth counter (achieved GB/s divided by
  the in-binary STREAM-triad peak, so machine-normalized) dropped more
  than ``--max-regression`` below the baseline's. Applied to every
  benchmark that carries the counter in both files;
* the index cascade's ``pruned_fraction`` counter on the walk 10-NN bench
  fell below its floor in the *current* run. The counter comes from the
  cascade's own cost accounting, so an index that silently stops being
  built (the engine falls back to full scans, charging every candidate as
  touched) reports 0.0 and fails loudly — a wall-time gate alone could
  miss that on a fast machine.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [--max-regression 0.25]
"""

import argparse
import json
import sys

# (label, engine benchmark, scalar reference benchmark). The engine entries
# are the shared-engine hot paths guarded by the gate: the DUST closed-form
# and table-lookup sweeps (query::UncertainEngine) and the ground-truth
# 10-NN build (query::DistanceMatrixEngine at one thread).
PAIRS = [
    ("DUST closed-form sweep", "BM_DustScanEngineClosedForm",
     "BM_DustScanScalarClosedForm"),
    ("DUST table-lookup sweep", "BM_DustScanEngineLookup",
     "BM_DustScanScalarLookup"),
    ("ground-truth kNN build", "BM_GroundTruthKnnEngineThreads/1/real_time",
     "BM_GroundTruthKnnSeedPath"),
    ("indexed walk 10-NN vs scan", "BM_GroundTruthKnnEngineWalkIndexed",
     "BM_GroundTruthKnnEngineWalk"),
    ("paged 10-NN vs resident", "BM_GroundTruthKnnEnginePaged",
     "BM_GroundTruthKnnEngineThreads/1/real_time"),
]

# (label, benchmark, minimum faults_per_iter). Enforced on the *current*
# run: the paged twin's buffer pool must actually fault blocks back from
# the spill log every sweep. With a 64 KiB budget over a 256 KiB dataset
# the clock sweep re-faults most of the 8 blocks per pass; a value below
# the floor means the budget stopped being applied (store silently built
# resident) and the paged/resident ratio above is measuring nothing.
FAULT_FLOORS = [
    ("paged 10-NN actually pages", "BM_GroundTruthKnnEnginePaged", 4.0),
]

# (label, benchmark, minimum pruned_fraction). Enforced on the *current*
# run: the benchmark must exist and its pruned_fraction counter must be
# >= floor. The walk dataset concentrates energy in the low-frequency Haar
# coefficients, so a healthy 16-coefficient synopsis prunes ~94% of
# candidates; 0.70 leaves headroom for dataset/seed tweaks while still
# catching a disabled or de-tuned index (which reports 0.0).
PRUNED_FLOORS = [
    ("indexed walk 10-NN pruning", "BM_GroundTruthKnnEngineWalkIndexed",
     0.70),
]

# (label, scalar benchmark, AVX2 benchmark, minimum speedup). Enforced on
# the *current* run: cpu_time(scalar) / cpu_time(avx2) must be >= floor.
SIMD_SPEEDUPS = [
    ("blocked Euclidean 1-vs-all @1024 (L2-resident)",
     "BM_ScanEuclideanBatchSoA_Scalar/1024/128",
     "BM_ScanEuclideanBatchSoA_Avx2/1024/128",
     3.0),
    # Eight rows' ordered add chains side by side in lanes (~2x); a kernel
    # that hands its rows back to the scalar chain measures ~1.0x.
    ("DUST closed-form 1-vs-all @1024, rows across lanes",
     "BM_DustKernelClosedForm_Scalar/1024",
     "BM_DustKernelClosedForm_Avx2/1024",
     1.5),
]


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    times = {}
    fractions = {}
    pruned = {}
    faults = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            # e.g. the *_Avx2 kernels skipping on non-AVX2 hardware.
            continue
        times[bench["name"]] = float(bench["cpu_time"])
        if "peak_fraction" in bench:
            fractions[bench["name"]] = float(bench["peak_fraction"])
        if "pruned_fraction" in bench:
            pruned[bench["name"]] = float(bench["pruned_fraction"])
        if "faults_per_iter" in bench:
            faults[bench["name"]] = float(bench["faults_per_iter"])
    return report.get("context", {}), times, fractions, pruned, faults


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional worsening of the "
                             "engine/scalar time ratio and of peak_fraction "
                             "bandwidth counters (default 0.25)")
    args = parser.parse_args()

    base_ctx, baseline, base_frac, _, _ = load_report(args.baseline)
    cur_ctx, current, cur_frac, cur_pruned, cur_faults = load_report(
        args.current)

    failures = []

    # -- Build-type gate: debug timings gate nothing. ------------------------
    for which, ctx in (("baseline", base_ctx), ("current", cur_ctx)):
        build_type = ctx.get("library_build_type", "<missing>")
        print(f"{which} library_build_type: {build_type}")
        if build_type == "debug":
            failures.append(
                f"{which} JSON was recorded from a debug build "
                f"(library_build_type={build_type!r}); re-record on Release "
                f"(cmake -DCMAKE_BUILD_TYPE=Release)")

    # -- Engine-vs-scalar ratio gate. ----------------------------------------
    print(f"\n{'path':<28} {'base ratio':>10} {'now ratio':>10} {'change':>8}")
    for label, engine, scalar in PAIRS:
        missing = [n for n in (engine, scalar) if n not in current]
        if missing:
            failures.append(f"{label}: missing in current run: {missing}")
            continue
        if engine not in baseline or scalar not in baseline:
            # The committed baseline predates this benchmark; report, don't
            # silently pass it off as covered.
            print(f"{label:<28} {'—':>10} "
                  f"{current[engine] / current[scalar]:>10.4f}   (no baseline"
                  f" entry, skipped)")
            continue
        base_ratio = baseline[engine] / baseline[scalar]
        now_ratio = current[engine] / current[scalar]
        change = now_ratio / base_ratio - 1.0
        print(f"{label:<28} {base_ratio:>10.4f} {now_ratio:>10.4f} "
              f"{change:>+7.1%}")
        if now_ratio > base_ratio * (1.0 + args.max_regression):
            failures.append(
                f"{label}: engine/scalar ratio {now_ratio:.4f} worsened "
                f"{change:+.1%} vs baseline {base_ratio:.4f} "
                f"(limit +{args.max_regression:.0%})")

    # -- Index pruning floor (current run). ----------------------------------
    print()
    for label, bench, floor in PRUNED_FLOORS:
        if bench not in current:
            failures.append(f"{label}: missing in current run: ['{bench}']")
            continue
        if bench not in cur_pruned:
            failures.append(
                f"{label}: {bench} no longer reports a pruned_fraction "
                f"counter")
            continue
        fraction = cur_pruned[bench]
        verdict = "ok" if fraction >= floor else "FAIL"
        print(f"{label}: pruned_fraction {fraction:.3f} "
              f"(floor {floor:.2f}) {verdict}")
        if fraction < floor:
            failures.append(
                f"{label}: pruned_fraction {fraction:.3f} below the "
                f"{floor:.2f} floor — the synopsis index is disabled or no "
                f"longer pruning")

    # -- Paged-store fault floor (current run). ------------------------------
    for label, bench, floor in FAULT_FLOORS:
        if bench not in current:
            failures.append(f"{label}: missing in current run: ['{bench}']")
            continue
        if bench not in cur_faults:
            failures.append(
                f"{label}: {bench} no longer reports a faults_per_iter "
                f"counter")
            continue
        rate = cur_faults[bench]
        verdict = "ok" if rate >= floor else "FAIL"
        print(f"{label}: faults_per_iter {rate:.1f} "
              f"(floor {floor:.1f}) {verdict}")
        if rate < floor:
            failures.append(
                f"{label}: faults_per_iter {rate:.1f} below the {floor:.1f} "
                f"floor — the buffer pool stopped paging, so the "
                f"paged/resident ratio is not measuring the storage tier")

    # -- SIMD speedup floor (current run). -----------------------------------
    simd_level = cur_ctx.get("uts_simd_level", "<missing>")
    print(f"\ncurrent uts_simd_level: {simd_level}")
    if simd_level != "avx2":
        print("  AVX2 not active in the current run; speedup floors skipped")
    else:
        for label, scalar, avx2, floor in SIMD_SPEEDUPS:
            missing = [n for n in (scalar, avx2) if n not in current]
            if missing:
                failures.append(
                    f"{label}: missing in current run: {missing}")
                continue
            speedup = current[scalar] / current[avx2]
            verdict = "ok" if speedup >= floor else "FAIL"
            print(f"  {label}: {speedup:.2f}x (floor {floor:.1f}x) {verdict}")
            if speedup < floor:
                failures.append(
                    f"{label}: AVX2 speedup {speedup:.2f}x below the "
                    f"{floor:.1f}x floor")

    # -- Bandwidth gate: peak_fraction per kernel, baseline vs current. ------
    shared = sorted(set(base_frac) & set(cur_frac))
    if shared:
        print(f"\n{'kernel':<44} {'base peak%':>10} {'now peak%':>10}")
        for name in shared:
            base_pf = base_frac[name]
            now_pf = cur_frac[name]
            print(f"{name:<44} {base_pf:>10.3f} {now_pf:>10.3f}")
            if now_pf < base_pf * (1.0 - args.max_regression):
                failures.append(
                    f"{name}: peak_fraction {now_pf:.3f} dropped "
                    f"{1.0 - now_pf / base_pf:.1%} below baseline "
                    f"{base_pf:.3f} (limit -{args.max_regression:.0%})")

    if failures:
        print("\nFAIL: bench gate violations", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nOK: build type, engine ratios, pruning floor, SIMD floors and "
          "bandwidth within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
