#!/usr/bin/env python3
"""Bench-regression gate over bench_micro/bench_service --json output.

Compares fresh `--json` runs against the checked-in baseline
(BENCH_dcam.json) record-by-record — records are keyed by (op, shape) — and
fails (exit 1) if any matched benchmark got slower than the tolerance allows:

    current_ns > baseline_ns * max_ratio

A baseline record may carry its own "max_ratio" field overriding the global
tolerance (used for the wall-clock service-throughput benches, which are
noisier than the steady-state micro kernels).

Records where lower is NOT better — bench_workload's throughput and load-
bandwidth rows — store their measurement as

    "value": 123.4, "unit": "rps", "higher_is_better": true

instead of "ns_per_iter", and the ratio test inverts: the gate fails when
baseline / current exceeds max_ratio, i.e. when the current run's
throughput dropped to less than 1/max_ratio of the baseline. The same
loose-tolerance philosophy applies — these rows catch a collapsed pipeline,
not noise.

A baseline record may also declare a cross-row claim with

    "min_speedup_vs": "BM_Other/shape", "min_speedup": 1.2

which is checked *within the current run* (never against the baseline
host): current_ns(BM_Other/shape) / current_ns(this row) must be at least
min_speedup. This is how structural wins are gated — e.g. the morsel
scatter must stay faster than per-iteration claiming on whatever machine CI
runs on, regardless of absolute nanoseconds.

Key mismatches are never silent: a baseline record missing from the current
run, or a current record missing from the baseline, each print a WARNING line
(typically a renamed/removed bench, or a new bench whose row still needs to
be added to BENCH_dcam.json). Warnings exit 0 unless --require-match.

The baseline is refreshed in the same PR whenever a kernel change moves the
numbers on purpose; the default tolerance is deliberately loose because the
baseline host and the CI runner differ (the gate exists to catch order-of-
magnitude mistakes — an accidentally-serialized ParallelFor, a kernel
falling off its fast path — not 10%% noise).

Only needs the Python 3 standard library.

Usage:
    ./build/bench_micro --benchmark_filter='MatMul|Conv|ComputeDcam' \\
        --json bench_micro.json
    ./build/bench_service --json bench_service.json
    python3 tools/check_bench_regression.py --baseline BENCH_dcam.json \\
        --current bench_micro.json --current bench_service.json
"""

import argparse
import json
import re
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for row in data.get("benchmarks", []):
        rows[(row["op"], row.get("shape", ""))] = row
    return rows


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.2fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.2fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%.0fns" % ns


def value_of(row):
    """The row's measurement: ns_per_iter classically, "value" otherwise."""
    return row["ns_per_iter"] if "ns_per_iter" in row else row["value"]


def backend_of(row):
    """The kernel backend the row was measured with ("portable"/"avx2");
    older baselines predate the field and print "-"."""
    return row.get("backend", "-")


def fmt_row(row):
    if "ns_per_iter" in row:
        return fmt_ns(row["ns_per_iter"])
    return "%.1f%s" % (row["value"], row.get("unit", ""))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--baseline", required=True, help="checked-in baseline json")
    parser.add_argument(
        "--current",
        required=True,
        action="append",
        help="fresh --json run; repeat the flag to merge several files "
        "(bench_micro + bench_service)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.5,
        help="fail when current/baseline ns_per_iter exceeds this "
        "(default %(default)s; per-record \"max_ratio\" in the baseline wins)",
    )
    parser.add_argument(
        "--ops",
        default=".*",
        help="regex over the op name selecting which benchmarks are gated",
    )
    parser.add_argument(
        "--require-match",
        action="store_true",
        help="turn the key-mismatch warnings (either direction) into failures",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = {}
    duplicates = []
    for path in args.current:
        for key, row in load(path).items():
            if key in current:
                duplicates.append(key)
            current[key] = row
    op_re = re.compile(args.ops)

    failures = []
    missing = []
    gated = 0
    print(
        "%-34s %-16s %-9s %12s %12s %8s"
        % ("op", "shape", "backend", "baseline", "current", "ratio")
    )
    print("-" * 96)
    for key in sorted(baseline):
        op, shape = key
        if not op_re.search(op):
            continue
        gated += 1
        base_row = baseline[key]
        base_val = value_of(base_row)
        higher_is_better = base_row.get("higher_is_better", False)
        max_ratio = base_row.get("max_ratio", args.max_ratio)
        cur = current.get(key)
        if cur is None:
            missing.append(key)
            print(
                "%-34s %-16s %-9s %12s %12s %8s"
                % (op, shape, backend_of(base_row), fmt_row(base_row), "-", "-")
            )
            continue
        cur_val = value_of(cur)
        # "ratio" is always degradation: time growth for lower-is-better
        # rows, throughput shrinkage for higher-is-better ones.
        if higher_is_better:
            ratio = base_val / cur_val if cur_val > 0 else float("inf")
        else:
            ratio = cur_val / base_val if base_val > 0 else float("inf")
        flag = ""
        if ratio > max_ratio:
            failures.append((key, ratio, max_ratio))
            flag = "  <-- REGRESSION (limit %.2fx)" % max_ratio
        print(
            "%-34s %-16s %-9s %12s %12s %7.2fx%s"
            % (op, shape, backend_of(cur), fmt_row(base_row), fmt_row(cur),
               ratio, flag)
        )

    # Cross-row claims: both rows come from the *current* run, so the check
    # is host-independent (the whole point — it gates a structural speedup,
    # not an absolute time).
    speedup_failures = []
    for key in sorted(baseline):
        ref_name = baseline[key].get("min_speedup_vs")
        if ref_name is None or not op_re.search(key[0]):
            continue
        min_speedup = baseline[key].get("min_speedup", 1.0)
        ref_key = tuple(ref_name.split("/", 1)) if "/" in ref_name else (ref_name, "")
        cur = current.get(key)
        ref = current.get(ref_key)
        if cur is None or ref is None:
            absent = key if cur is None else ref_key
            if absent not in missing:
                missing.append(absent)
            continue
        speedup = (
            value_of(ref) / value_of(cur) if value_of(cur) > 0 else float("inf")
        )
        flag = ""
        if speedup < min_speedup:
            speedup_failures.append((key, ref_key, speedup, min_speedup))
            flag = "  <-- BELOW MINIMUM"
        print(
            "%s/%s vs %s/%s: %.2fx speedup (min %.2fx)%s"
            % (key[0], key[1], ref_key[0], ref_key[1], speedup, min_speedup, flag)
        )

    new_keys = sorted(k for k in current if k not in baseline and op_re.search(k[0]))
    for key in new_keys:
        print(
            "%-34s %-16s %-9s %12s %12s %8s"
            % (key[0], key[1], backend_of(current[key]), "-",
               fmt_row(current[key]), "new")
        )

    print("-" * 96)
    mismatched = False
    for key in duplicates:
        mismatched = True
        print(
            "WARNING: %s/%s appears in more than one --current file "
            "(last one wins the merge)" % key
        )
    for key in missing:
        mismatched = True
        print(
            "WARNING: baseline benchmark %s/%s missing from the current run "
            "(renamed or removed? refresh BENCH_dcam.json)" % key
        )
    for key in new_keys:
        mismatched = True
        print(
            "WARNING: new benchmark %s/%s has no baseline "
            "(add its row to BENCH_dcam.json)" % key
        )
    if failures or speedup_failures:
        print(
            "FAIL: %d benchmark(s) regressed, %d cross-row claim(s) violated:"
            % (len(failures), len(speedup_failures))
        )
        for (op, shape), ratio, limit in failures:
            print(
                "  %s/%s degraded %.2fx vs the baseline (limit %.2fx)"
                % (op, shape, ratio, limit)
            )
        for (op, shape), (rop, rshape), speedup, minimum in speedup_failures:
            print(
                "  %s/%s is only %.2fx faster than %s/%s (minimum %.2fx)"
                % (op, shape, speedup, rop, rshape, minimum)
            )
        return 1
    if mismatched and args.require_match:
        print("FAIL: key mismatches above and --require-match is set")
        return 1
    print(
        "OK: %d gated benchmark(s) within tolerance%s"
        % (
            gated - len(missing),
            ", with %d key-mismatch warning(s)"
            % (len(missing) + len(new_keys) + len(duplicates))
            if mismatched
            else "",
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
