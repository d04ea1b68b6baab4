#!/usr/bin/env python3
"""Gate event-core throughput against the committed BENCH_core.json.

Usage: check_bench_regression.py <committed_core.json> <fresh_core.json>
       [--threshold 0.20]
       [--hotpath <committed_hotpath.json> <fresh_hotpath.json>]

Compares the *speedup_vs_seed* ratios for schedule_fire and churn, not the
absolute ops/sec: the committed baseline was measured on the maintainer's
machine, a CI runner's absolute throughput tells us nothing. The ratio is
in-binary (new queue vs the seed queue, bench/seed_event_queue.hpp, under
identical flags on the same host), so it is hardware-normalized — a >20%
drop means the event core itself got slower relative to its fixed
reference, not that the runner was slow. Both files are BENCH_core.json
schema 2: each ratio is the median over interleaved (new, seed) pairs, and
the gate reads that median. The fresh run may use --ops far below the
committed default; the ratio is noisier there, which is why the gate is 20%
and only two metrics.

With --hotpath, also gates the fig15 work counters of a fresh
BENCH_hotpath.json against the committed one. The scenario is deterministic,
so the counters are exact on any hardware and must match the committed
values exactly, row by row:
  - events_fired, packet_hops, kick_events, retry_events, wheel_events and
    heap_events (a changed count means the event pattern changed: an extra
    wakeup per transmission, a lost coalescing, events rerouted between the
    timing wheel and the heap)
  - hot_path_allocs == 0 (the steady state never touches the allocator;
    skipped if the probe was stubbed out)
A deliberate change to the event pattern must regenerate and commit
BENCH_hotpath.json alongside it.
"""
import argparse
import json
import sys

# fig15 work counters gated for exact equality with the committed file.
COUNTERS = ("events_fired", "packet_hops", "kick_events", "retry_events",
            "wheel_events", "heap_events")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("committed")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20)
    ap.add_argument("--hotpath", nargs=2, metavar=("COMMITTED", "FRESH"),
                    help="committed and fresh BENCH_hotpath.json: gate the "
                    "fig15 work counters exactly")
    args = ap.parse_args()

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures = []
    for doc, path in ((committed, args.committed), (fresh, args.fresh)):
        if doc.get("schema_version") != 2:
            print(f"{path}: expected BENCH_core schema_version 2 (median "
                  f"speedup_vs_seed over interleaved pairs)", file=sys.stderr)
            return 1
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

    if args.hotpath:
        with open(args.hotpath[0]) as f:
            base_rows = {r["flows"]: r for r in json.load(f)["fig15"]}
        with open(args.hotpath[1]) as f:
            hot = json.load(f)
        fresh_rows = {r["flows"]: r for r in hot["fig15"]}
        probe = hot.get("alloc_probe_enabled", False)
        if not probe:
            print("hot_path_allocs: probe stubbed out (sanitized build), "
                  "skipped")

        for flows, base in sorted(base_rows.items()):
            name = f"fig15[{flows}]"
            row = fresh_rows.get(flows)
            if row is None:
                print(f"{name:14s} missing from the fresh run REGRESSION")
                failures.append(name)
                continue
            checks = [(c, base[c], row[c]) for c in COUNTERS]
            if probe:
                checks.append(("hot_path_allocs", 0, row["hot_path_allocs"]))
            for key, want, got in checks:
                ok = got == want
                print(f"{name:14s} {key}: expected {want}, fresh {got} "
                      f"{'OK' if ok else 'REGRESSION'}")
                if not ok:
                    failures.append(f"{name}.{key}")

    if failures:
        print(f"FAIL: {', '.join(failures)} regressed vs the committed "
              f"baseline / hot-path invariants", file=sys.stderr)
        return 1
    print("bench smoke: no event-core or hot-path regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
