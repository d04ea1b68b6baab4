#!/usr/bin/env python3
"""Gate event-core throughput against the committed BENCH_core.json.

Usage: check_bench_regression.py <committed_core.json> <fresh_core.json>
       [--threshold 0.20] [--hotpath <fresh_hotpath.json>]

Compares the *speedup_vs_seed* ratios for schedule_fire and churn, not the
absolute ops/sec: the committed baseline was measured on the maintainer's
machine, a CI runner's absolute throughput tells us nothing. The ratio is
in-binary (new queue vs the embedded seed queue under identical flags on the
same host), so it is hardware-normalized — a >20% drop means the event core
itself got slower relative to its fixed reference, not that the runner was
slow. The fresh run may use --ops far below the committed default; the ratio
is noisier there, which is why the gate is 20% and only two metrics.

With --hotpath, also gates the hot-path invariants from a fresh
BENCH_hotpath.json. These are count-based, not timing-based, so they hold
exactly on any hardware:
  - chain.events_per_hop < 1.0 (train delivery keeps the multi-hop chain
    below one simulator event per packet-hop)
  - hot_path_allocs == 0 on every fig15 row and the chain row (the steady
    state never touches the allocator; skipped if the probe was stubbed out)
  - wheel_vs_heap.identical_trajectory (hybrid and heap-only backends fired
    the same event sequence)
"""
import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("committed")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20)
    ap.add_argument("--hotpath", help="fresh BENCH_hotpath.json to gate "
                    "count-based hot-path invariants on")
    args = ap.parse_args()

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures = []
    for metric in ("schedule_fire", "churn"):
        base = committed["speedup_vs_seed"][metric]
        now = fresh["speedup_vs_seed"][metric]
        ratio = now / base
        status = "OK" if ratio >= 1.0 - args.threshold else "REGRESSION"
        print(f"{metric:14s} speedup_vs_seed: committed {base:.3f}, "
              f"fresh {now:.3f} ({ratio:.2%} of committed) {status}")
        if status != "OK":
            failures.append(metric)

    if args.hotpath:
        with open(args.hotpath) as f:
            hot = json.load(f)

        chain = hot["chain"]
        eph = chain["events_per_hop"]
        ok = eph < 1.0
        print(f"chain          events_per_hop: {eph:.3f} "
              f"{'OK' if ok else 'REGRESSION (>= 1.0)'}")
        if not ok:
            failures.append("chain.events_per_hop")

        if hot.get("alloc_probe_enabled", False):
            rows = [(f"fig15[{r['flows']}]", r["hot_path_allocs"])
                    for r in hot["fig15"]]
            rows.append(("chain", chain["hot_path_allocs"]))
            for name, allocs in rows:
                ok = allocs == 0
                print(f"{name:14s} hot_path_allocs: {allocs} "
                      f"{'OK' if ok else 'REGRESSION (!= 0)'}")
                if not ok:
                    failures.append(f"{name}.hot_path_allocs")
        else:
            print("hot_path_allocs: probe stubbed out (sanitized build), "
                  "skipped")

        identical = hot["wheel_vs_heap"]["identical_trajectory"]
        print(f"wheel_vs_heap  identical_trajectory: {identical} "
              f"{'OK' if identical else 'REGRESSION'}")
        if not identical:
            failures.append("wheel_vs_heap.identical_trajectory")

    if failures:
        print(f"FAIL: {', '.join(failures)} regressed vs the committed "
              f"baseline / hot-path invariants", file=sys.stderr)
        return 1
    print("bench smoke: no event-core or hot-path regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
