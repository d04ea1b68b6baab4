#!/usr/bin/env python3
"""Compares benchmark results of a parent commit (A) and a change (B).

    python3 benchmark/compare.py A.json B.json [A2.json B2.json ...]

Arguments are benchmark/out/results.json files in (parent, change) pairs.
For every workload and end-to-end metric of BENCHMARK.json it prints one
verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound; or, at any size, the change loses by the
              rule for a gain below;
  unresolved  the parent's run-to-run spread (interquartile range over its
              runs, as a share of their median) is wider than the bound and
              not every change run beats every parent run; or the change
              looks better by more than the bound without meeting the rule
              for a gain;
  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's interquartile range;
  unchanged   otherwise.

With a single pair there is no run-to-run spread, so only the bound
applies.

Failures come first. Per workload, the change is worse when its runs fail
more reps in total than the parent's, or when it lacks an end-to-end metric
the parent has. A gain does not count on a workload where any change run
failed a rep or its traced run, or marked its per-layer numbers invalid:
such a verdict reads "unresolved" instead of "improved".

Deterministic per-layer counters (event, hop and allocation counts, cache
hits) are reported as identical or differing. Exit status is 1 if any
verdict is "worse".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics measured in host time: those in a time unit and two
# ratios of times. Every other one is a count or a ratio of counts and must
# repeat exactly on the same commit and seed.
TIME_UNITS = {"s", "ms", "us", "ns"}
HOST_TIME_RATIOS = {"exec.efficiency", "trace.overhead"}
MIN_PAIRS_FOR_GAIN = 10


def iqr(xs):
    if len(xs) < 2:
        return None
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def verdict(a, b, better, bound):
    """a, b: gated values of the parent and change runs, index-paired."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / med_a  # > 0: the change is better
    spread_a = iqr(a)

    def decisive(side):
        """The rule for a gain: side 1 wins, side -1 loses, 9 in 10 pairs."""
        n = sum(1 for x, y in zip(a, b) if side * sign * (y - x) > 0)
        return (side * gain > 0 and len(a) >= MIN_PAIRS_FOR_GAIN
                and n >= 0.9 * len(a)
                and abs(med_b - med_a) > (spread_a or 0.0))

    # A slowdown that meets the rule for a gain in reverse is worse even
    # inside the bound: paired runs share the host's drift, which the
    # bound has to allow for between unpaired runs.
    if decisive(-1):
        return "worse", gain
    if spread_a is not None and spread_a / med_a > bound:
        if min(sign * x for x in b) <= max(sign * x for x in a):
            return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if decisive(1):
        return "improved", gain
    if gain > bound:
        return "unresolved", gain
    return "unchanged", gain


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = []
    for path in argv:
        with open(path) as f:
            runs.append(json.load(f))
    parents, changes = runs[0::2], runs[1::2]
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in r["workloads"] for r in runs)]
    # A workload every parent run has and some change run lacks.
    dropped = [w for w in parents[0]["workloads"] if w not in workloads
               and all(w in r["workloads"] for r in parents)]

    print(f"{len(parents)} pair(s); parent {parents[0]['fingerprint']['git_rev']}"
          f" vs change {changes[0]['fingerprint']['git_rev']}")
    print(f"{'workload':<22} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    any_worse = bool(dropped)
    for w in dropped:
        print(f"{w:<22} {'(workload)':<16} {'':>12} {'':>12} {'':>8} "
              f"{'':>6}  worse: missing from the change")
    for w in workloads:
        failed_a = sum(r["workloads"][w]["failed"] for r in parents)
        failed_b = sum(r["workloads"][w]["failed"] for r in changes)
        tried_a = sum(r["workloads"][w]["attempted"] for r in parents)
        tried_b = sum(r["workloads"][w]["attempted"] for r in changes)
        v = "worse" if failed_b > failed_a else "unchanged"
        any_worse = any_worse or v == "worse"
        print(f"{w:<22} {'failed reps':<16} {f'{failed_a}/{tried_a}':>12} "
              f"{f'{failed_b}/{tried_b}':>12} {'':>8} {'':>6}  {v}")
        # `failures` also lists a failed traced run, which `failed` (timed
        # reps only) does not count.
        trusted = all(not r["workloads"][w]["failures"]
                      and r["workloads"][w].get("per_layer_valid", True)
                      for r in changes)
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [r["workloads"][w]["end_to_end"].get(name) for r in parents]
            b = [r["workloads"][w]["end_to_end"].get(name) for r in changes]
            if None in a or None in b:
                # A metric the parent reports and the change does not is a
                # run that failed to produce it.
                v = "worse" if None not in a else "missing"
                any_worse = any_worse or v == "worse"
                print(f"{w:<22} {name:<16} {'':>12} {'':>12} {'':>8} "
                      f"{m['bound']:>6.0%}  {v}")
                continue
            a = [x["value"] for x in a]
            b = [x["value"] for x in b]
            v, gain = verdict(a, b, m["better"], m["bound"])
            if v == "improved" and not trusted:
                v = "unresolved"
            any_worse = any_worse or v == "worse"
            print(f"{w:<22} {name:<16} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {gain:>+8.1%} "
                  f"{m['bound']:>6.0%}  {v}")

    print("\ndeterministic per-layer counters")
    for w in workloads:
        for m in bench["per_layer"]:
            name = m["name"]
            if m["unit"] in TIME_UNITS or name in HOST_TIME_RATIOS:
                continue
            values = {r["workloads"][w]["per_layer"].get(name)
                      for r in runs if r["workloads"][w]["per_layer"]}
            if not values:
                continue
            state = "identical" if len(values) == 1 else "DIFFER"
            shown = ", ".join(f"{x:.10g}" for x in sorted(values,
                                                          key=lambda x: x or 0)
                              if x is not None)
            print(f"{w:<22} {name:<24} {state:<10} {shown}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
