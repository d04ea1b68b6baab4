#!/usr/bin/env python3
"""Gate event-core throughput against the committed BENCH_core.json.

Usage: check_bench_regression.py <committed_core.json> <fresh_core.json>
       [--threshold 0.20]

Compares the *speedup_vs_seed* ratios for schedule_fire and churn, not the
absolute ops/sec: the committed baseline was measured on the maintainer's
machine, a CI runner's absolute throughput tells us nothing. The ratio is
in-binary (new queue vs the seed queue, bench/seed_event_queue.hpp, under
identical flags on the same host), so it is hardware-normalized — a >20%
drop means the event core itself got slower relative to its fixed
reference, not that the runner was slow. Both files are BENCH_core.json
schema 3: each ratio is the median over interleaved (new, seed) pairs, and
the gate reads that median. The fresh run may use --ops far below the
committed default; the ratio is noisier there, which is why the gate is 20%
and only two metrics.

The fig15 work counters are not gated here: they are exact, so
tests/integration/zero_alloc_test.cpp asserts them in every ctest run.
"""
import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("committed")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20)
    args = ap.parse_args()

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    for doc, path in ((committed, args.committed), (fresh, args.fresh)):
        if doc.get("schema_version") != 3:
            print(f"{path}: expected BENCH_core schema_version 3 (median "
                  f"speedup_vs_seed over interleaved pairs)", file=sys.stderr)
            return 1
    failures = []
    for metric in ("schedule_fire", "churn"):
        base = committed["speedup_vs_seed"][metric]["median"]
        cell = fresh["speedup_vs_seed"][metric]
        now = cell["median"]
        ratio = now / base
        status = "OK" if ratio >= 1.0 - args.threshold else "REGRESSION"
        print(f"{metric:14s} speedup_vs_seed: committed median {base:.3f}, "
              f"fresh median {now:.3f} over {cell['pairs']} pairs (min "
              f"{cell['min']:.3f}, max {cell['max']:.3f}; {ratio:.2%} of "
              f"committed) {status}")
        if status != "OK":
            failures.append(metric)

    if failures:
        print(f"FAIL: {', '.join(failures)} regressed vs the committed "
              f"baseline", file=sys.stderr)
        return 1
    print("bench smoke: no event-core regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
