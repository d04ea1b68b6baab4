#!/usr/bin/env python3
"""Repository benchmark: builds the simulator, times its workloads end to
end, checks every output, and traces one run per workload layer by layer.

    python3 benchmark/run.py                  # every workload, 9 reps each
    python3 benchmark/run.py --quick          # 1 rep each, no traced run
    python3 benchmark/run.py --workload websearch_clos --seed 7 \
        --seconds 20 --trace 0

Reps are fresh processes, run round-robin across the selected workloads so a
noisy stretch on the host hits every workload rather than one. --seconds S
runs reps of one workload until S seconds have passed instead of a fixed
--reps count. After the reps, one traced process per workload re-drives the
same specs layer by layer; tracing never runs inside a timed rep.

Before every rep, a fixed host-speed probe (host_probe.cpp) is timed in a
fresh process. The gated times are scaled by PROBE_REF_S over the fastest
probe of the workload's reps: host seconds at the speed the reference host
runs the probe, which neighbours on a shared host move far less than raw
seconds. The raw times are kept in results.json.

Metric names and units come from BENCHMARK.json at the repository root.
Every metric is printed with its unit; benchmark/out/results.json keeps every
raw sample and the machine fingerprint. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 1 its
metrics are the per-layer ones, otherwise the end-to-end ones.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD = os.path.join(OUT, "build")
SPECS = os.path.join(HERE, "specs")
EXPECTED = os.path.join(HERE, "expected")

# Workloads in round-robin order. A workload is one spec file, or a
# directory of specs run as a campaign.
WORKLOADS = ["longflow_dumbbell", "websearch_clos", "webserver_dctcp_clos",
             "fig19_campaign"]
DEFAULT_REPS = 9
REP_TIMEOUT_S = 60
# The probe's fastest time on the reference host, a quiet 4-core Intel Xeon
# VM: gated times are host seconds at that speed.
PROBE_REF_S = 0.27


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spec_paths(workload):
    single = os.path.join(SPECS, workload + ".json")
    if os.path.isfile(single):
        return [single]
    d = os.path.join(SPECS, workload)
    paths = sorted(os.path.join(d, n) for n in os.listdir(d)
                   if n.endswith(".json"))
    if not paths:
        raise BenchError(f"no specs for workload {workload}")
    return paths


def read_json(path):
    with open(path) as f:
        return json.load(f)


def default_seed(workload):
    seeds = {read_json(p)["seed"] for p in spec_paths(workload)}
    if len(seeds) != 1:
        raise BenchError(f"{workload}: specs disagree on the default seed")
    return seeds.pop()


# ---- build -----------------------------------------------------------------

def build():
    """Configures (once) and builds the Release binaries; returns their dir."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed:\n" + r.stdout[-4000:])
    r = subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])
    return BUILD


# ---- one process -----------------------------------------------------------

def run_binary(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=REP_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited {r.returncode}: "
                         + r.stderr.strip()[-2000:])
    return json.loads(r.stdout.strip().splitlines()[-1])


def timed_rep(bindir, workload, seed, outdir):
    """One rep, preceded by the host-speed probe."""
    probe = run_binary([os.path.join(bindir, "xpass_host_probe")])
    shutil.rmtree(outdir, ignore_errors=True)
    cmd = [os.path.join(bindir, "xpass_benchmark"), "--out", outdir,
           "--seed", str(seed)]
    rep = run_binary(cmd + spec_paths(workload))
    rep["probe_s"] = probe["probe_s"]
    return rep


def traced_run(bindir, workload, seed, outdir, trace_file):
    shutil.rmtree(outdir, ignore_errors=True)
    cmd = [os.path.join(bindir, "xpass_benchmark_traced"), "--out", outdir,
           "--trace-file", trace_file, "--seed", str(seed)]
    return run_binary(cmd + spec_paths(workload))


# ---- correctness -----------------------------------------------------------

def check_outputs(workload, outdir, reference_dir):
    """Reasons the recorder outputs in `outdir` are wrong (empty = correct).

    Each output must equal its reference byte for byte; ExpressPass specs
    must not drop data; completion specs must finish every flow.
    """
    problems = []
    for spec_path in spec_paths(workload):
        name = os.path.basename(spec_path)
        out_path = os.path.join(outdir, name)
        if not os.path.isfile(out_path):
            problems.append(f"{name}: no recorder output")
            continue
        with open(out_path, "rb") as f:
            got = f.read()
        ref_path = os.path.join(reference_dir, name)
        if not os.path.isfile(ref_path):
            problems.append(f"{name}: no reference {ref_path}")
        else:
            with open(ref_path, "rb") as f:
                if f.read() != got:
                    problems.append(f"{name}: differs from {ref_path}")
        spec = read_json(spec_path)
        try:
            scalars = json.loads(got)["scalars"]
        except (ValueError, KeyError, TypeError):
            problems.append(f"{name}: not a recorder document")
            continue
        if spec["protocol"] == "ExpressPass" and scalars["net.data_drops"] != 0:
            problems.append(f"{name}: ExpressPass dropped "
                            f"{scalars['net.data_drops']:.0f} data packets")
        if (spec["stop"]["kind"] == "completion"
                and scalars["flows.completed"] != scalars["flows.scheduled"]):
            problems.append(f"{name}: {scalars['flows.completed']:.0f} of "
                            f"{scalars['flows.scheduled']:.0f} flows finished")
    return problems


def check_campaign(workload, rep):
    c = rep.get("campaign")
    if c is None:
        return []
    n = len(spec_paths(workload))
    problems = []
    if not c["cold_usable"] or c["cold_ran"] != n:
        problems.append(f"cold pass ran {c['cold_ran']} of {n} specs")
    if c["warm_hits"] != n or not c["warm_identical"]:
        problems.append(f"warm pass: {c['warm_hits']}/{n} hits, payloads "
                        + ("identical" if c["warm_identical"] else "differ"))
    return problems


# ---- statistics ------------------------------------------------------------

def summary(samples):
    s = sorted(samples)
    if len(s) >= 2:
        q1, med, q3 = statistics.quantiles(s, n=4, method="inclusive")
    else:
        q1 = med = q3 = s[0]
    return {"n": len(s), "min": s[0], "q1": q1, "median": med, "q3": q3,
            "max": s[-1], "samples": samples}


def end_to_end(reps, hops):
    """Gated end-to-end values from the successful reps of one workload.

    Samples are raw host seconds; gated times are scaled to the reference
    host's speed by `host_scale`.
    """
    probe = summary([r["probe_s"] for r in reps])
    scale = PROBE_REF_S / probe["min"]
    run_s = summary([r["run_s"] for r in reps])
    setup_s = summary([r["setup_s"] for r in reps])
    rss = summary([r["peak_rss_mb"] for r in reps])
    out = {
        # Noise on a shared host only ever adds time, so the fastest rep and
        # the fastest probe are the steadiest estimates of their costs.
        "run_s": dict(run_s, value=run_s["min"] * scale,
                      stat="min x host_scale"),
        "setup_s": dict(setup_s, value=setup_s["median"] * scale,
                        stat="median x host_scale"),
        "peak_rss_mb": dict(rss, value=rss["median"], stat="median"),
    }
    if hops is not None:
        rates = summary([hops / t / 1e6 for t in run_s["samples"]])
        out["sim_mhops_per_s"] = dict(
            rates, value=hops / out["run_s"]["value"] / 1e6,
            stat="packet_hops / run_s")
    return out, dict(probe, host_scale=scale)


# ---- provenance ------------------------------------------------------------

def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"

    def git(*args):
        # The ceiling keeps git from finding a repository above a checkout
        # that is not one itself.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                               text=True, env=env)
        except OSError:
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_rev": rev,
        "git_dirty": bool(status) if rev else None,
        "python": platform.python_version(),
    }


# ---- main ------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--reps", type=int, default=None,
                   help=f"timed reps per workload (default {DEFAULT_REPS})")
    p.add_argument("--seconds", type=float, default=None,
                   help="run reps until this many seconds have passed")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: each spec's own seed)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="last line carries per-layer (1) or end-to-end (0) "
                        "metrics; default: end-to-end")
    p.add_argument("--quick", action="store_true",
                   help="1 rep per workload and no traced run")
    p.add_argument("--bless", action="store_true",
                   help="copy default-seed outputs to benchmark/expected/")
    p.add_argument("--out", default=os.path.join(OUT, "results.json"),
                   help="results file (default benchmark/out/results.json)")
    a = p.parse_args(argv)
    if a.reps is not None and a.reps < 1:
        p.error("--reps must be at least 1")
    if a.seconds is not None and a.reps is not None:
        p.error("--seconds and --reps are exclusive")
    if a.seed is not None and a.seed < 0:
        p.error("--seed must be non-negative")
    if a.quick:
        if a.trace == 1:
            p.error("--quick has no traced run, so no per-layer metrics")
        a.reps = 1
        a.seconds = None
    if a.bless and a.seed is not None:
        p.error("--bless records the default seeds' outputs only")
    return a


def run(args):
    bench = load_benchmark_json()
    workloads = args.workload or list(WORKLOADS)
    bindir = build()
    seeds = {w: default_seed(w) if args.seed is None else args.seed
             for w in workloads}

    state = {w: {"reps": [], "failures": [], "attempted": 0}
             for w in workloads}

    def one_rep(w):
        st = state[w]
        st["attempted"] += 1
        k = st["attempted"]
        outdir = os.path.join(OUT, w, f"rep{k}")
        try:
            rep = timed_rep(bindir, w, seeds[w], outdir)
        except (BenchError, subprocess.TimeoutExpired, ValueError) as e:
            st["failures"].append(f"rep {k}: {e}")
            return
        if args.bless and k == 1:
            dst = os.path.join(EXPECTED, w)
            shutil.rmtree(dst, ignore_errors=True)
            shutil.copytree(outdir, dst,
                            ignore=shutil.ignore_patterns("cache"))
        ref = (os.path.join(EXPECTED, w) if seeds[w] == default_seed(w)
               else st.get("ref_dir"))
        if ref is None:
            ref = st["ref_dir"] = outdir
        problems = check_outputs(w, outdir, ref) + check_campaign(w, rep)
        if problems:
            st["failures"].append(f"rep {k}: " + "; ".join(problems))
        else:
            st["reps"].append(rep)
            st.setdefault("engine_dir", outdir)

    start = time.monotonic()
    if args.seconds is not None:
        # Start a rep only if a typical rep still fits in the window.
        for w in workloads:
            t0 = time.monotonic()
            times = []
            while not times or (time.monotonic() - t0
                                + statistics.median(times) <= args.seconds):
                t = time.monotonic()
                one_rep(w)
                times.append(time.monotonic() - t)
    else:
        for _ in range(args.reps or DEFAULT_REPS):
            for w in workloads:
                one_rep(w)
    timed_wall = time.monotonic() - start

    results = {"schema": "xpass.benchmark.results.v1",
               "fingerprint": fingerprint(),
               "config": {"workloads": workloads, "seeds": seeds,
                          "reps": args.reps, "seconds": args.seconds,
                          "quick": args.quick, "timed_wall_s": timed_wall},
               "workloads": {}}
    for w in workloads:
        st = state[w]
        res = {"seed": seeds[w], "attempted": st["attempted"],
               "failed": len(st["failures"]),
               "fail_ratio": len(st["failures"]) / st["attempted"],
               "failures": st["failures"], "end_to_end": {}, "per_layer": {}}
        results["workloads"][w] = res
        if not st["reps"]:
            continue
        traced = None
        if not args.quick:
            traced_dir = os.path.join(OUT, w, "traced")
            trace_file = os.path.join(OUT, f"trace_{w}.json")
            try:
                traced = traced_run(bindir, w, seeds[w], traced_dir,
                                    trace_file)
            except (BenchError, subprocess.TimeoutExpired, ValueError) as e:
                res["failures"].append(f"traced run: {e}")
            else:
                res["trace_file"] = os.path.relpath(trace_file, ROOT)
                problems = check_campaign(w, traced)
                if problems:
                    res["failures"].append("traced run: " + "; ".join(problems))
        hops = traced["metrics"]["net.packet_hops"] if traced else None
        res["end_to_end"], res["host_probe"] = end_to_end(st["reps"], hops)
        if traced:
            layer = dict(traced["metrics"])
            layer["trace.overhead"] = (traced["wall_s"]
                                       / res["end_to_end"]["run_s"]["min"])
            # Fidelity is byte identity with the engine's recorder output.
            matches = not check_outputs(w, traced_dir, st["engine_dir"])
            layer["trace.matches_engine"] = 1.0 if matches else 0.0
            res["per_layer_valid"] = matches and traced["dropped_spans"] == 0
            res["per_layer"] = layer

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    return bench, results


def report(bench, results, trace):
    """Prints every metric with its unit; returns the final-line object."""
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    wanted = layer_units if trace == 1 else e2e_units
    workloads = results["workloads"]
    attempted = sum(r["attempted"] for r in workloads.values())
    failed = sum(r["failed"] for r in workloads.values())
    metrics = {}
    correct = failed == 0
    for w, r in workloads.items():
        print(f"== {w} (seed {r['seed']}): {r['attempted']} reps, "
              f"{r['failed']} failed, fail_ratio {r['fail_ratio']:.3f}")
        for reason in r["failures"]:
            print(f"   FAILED {reason}")
        correct = correct and not r["failures"]
        if "host_probe" in r:
            p = r["host_probe"]
            print(f"   host_scale         {p['host_scale']:<14.6g} "
                  f"(probe {PROBE_REF_S} s at reference speed; fastest here "
                  f"{p['min']:.6g} s, median {p['median']:.6g} s)")
        for name, unit in e2e_units.items():
            m = r["end_to_end"].get(name)
            if m is None:
                continue
            print(f"   {name:<18} {m['value']:<14.6g} {unit:<8} "
                  f"({m['stat']}; raw over {m['n']} reps: min {m['min']:.6g}, "
                  f"q1 {m['q1']:.6g}, median {m['median']:.6g}, "
                  f"q3 {m['q3']:.6g}, max {m['max']:.6g})")
        if r["per_layer"]:
            valid = "" if r.get("per_layer_valid") else "  [INVALID: trace " \
                "does not match the engine]"
            print(f"   per-layer (traced run){valid}")
            for name, unit in layer_units.items():
                print(f"     {name:<24} {r['per_layer'][name]:<14.6g} {unit}")
        source = r["per_layer"] if trace == 1 else \
            {k: v["value"] for k, v in r["end_to_end"].items()}
        for name, unit in wanted.items():
            if name not in source:  # --quick, or the traced run failed
                continue
            key = name if len(workloads) == 1 else f"{w}/{name}"
            metrics[key] = {"value": source[name], "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv):
    args = parse_args(argv)
    try:
        bench, results = run(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"benchmark: {e}")
        return 2
    line = report(bench, results, args.trace)
    print(f"results: {os.path.relpath(os.path.abspath(args.out), os.getcwd())}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
