#!/usr/bin/env python3
"""Measure the benchmark on this machine and write perfbench/baseline.json.

    python3 perfbench/record_baseline.py

For each workload: one untraced and one traced run on the default seed
(metrics, results_digest, tracing overhead), then untraced runs on
SEEDS further seeds, reporting each end-to-end metric's median and its
spread (quartile distance / median, as statistics.quantiles(n=4) gives
it) beside the metric's bound.  Takes about 4.5 minutes per workload at
10 seeds.  The held-out seed is never run here: keep it for re-checking
a claim made on the others.
"""

import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 909
SEEDS = 10
OUT = os.path.join(run.HERE, "baseline.json")

# For every per-layer metric: the end-to-end metric it should move, the
# workload it mostly moves on, and the workload that bypasses it.
LAYERS = {
    "exp": ("wall_s", "fig10-sweep, pareto-search", "-"),
    "network.construct_s": ("setup_s", "all", "-"),
    "network": ("sim_cycles_per_cpu_s, point_s_p50", "saturated-uniform",
                "fig10-sweep low rates"),
    "sim": ("sim_cycles_per_cpu_s", "fig10-sweep", "saturated-uniform"),
    "workload": ("point_s_p50, point_s_max, wall_s", "fig10-sweep",
                 "saturated-uniform"),
    "link": ("sim_cycles_per_cpu_s", "saturated-uniform", "fig10-sweep"),
    "core": ("model.savings_x, model.latency_ratio", "fig10-sweep", "-"),
    "dvs": ("model.savings_x, model.latency_ratio", "fig10-sweep", "-"),
    "metrics": ("model.latency_ratio, model.throughput_flits",
                "saturated-uniform", "-"),
    "search": ("wall_s, model.hypervolume", "pareto-search",
               "fig10-sweep, saturated-uniform"),
    "trace": ("(tracing cost; moves nothing)", "all", "-"),
}


def layer_row(name):
    key = name if name in LAYERS else name.split(".")[0]
    moves, on, bypassed = LAYERS[key]
    return {"moves": moves, "mostly_on": on, "bypassed_by": bypassed}


def spread_of(values):
    """Median, quartile distance / median, and the values."""
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q[2] - q[0]) / med, "values": values}


def bench(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not line["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{proc.stdout[-3000:]}")
    tag = f"{workload}-seed{seed}-trace{trace}-t{run.threads()}.json"
    with open(os.path.join(run.BUILD, "results", tag)) as f:
        return json.load(f)


def main():
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    run.build()
    workloads = {}
    baseline = {
        "nproc": os.cpu_count(),
        "threads": run.threads(),
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "per_layer": {m["name"]: layer_row(m["name"])
                      for m in spec["per_layer"]},
        "workloads": workloads,
    }

    for w in spec["workloads"]:
        name = w["name"]
        untraced = bench(name, DEFAULT_SEED, 0, seconds)
        traced = bench(name, DEFAULT_SEED, 1, seconds)
        seeds = [DEFAULT_SEED + 100 + i for i in range(SEEDS)]
        runs = [bench(name, s, 0, seconds) for s in seeds]
        spread = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            spread[m["name"]] = dict(spread_of(values), bound=m["bound"])
        # The same host times before scaling (README: host-speed scaling).
        raw = {name: spread_of([r["info"][name] for r in runs])
               for name in sorted(runs[0]["info"])
               if name.startswith("raw.") or name == "host_reference_s"}
        latency_ratio = untraced["info"]["model.latency_ratio"]
        workloads[name] = {
            "why": w["why"],
            "results_digest": untraced["results_digest"],
            "rounds": untraced["info"]["rounds"],
            "metrics": untraced["metrics"],
            "model.latency_ratio": latency_ratio if latency_ratio > 0 else None,
            "per_layer": traced["metrics"],
            "trace_overhead_s": traced["metrics"]["trace.overhead_s"],
            "trace_overhead_frac": traced["metrics"]["trace.overhead_frac"],
            "seeds": seeds,
            "across_seeds": spread,
            "across_seeds_unscaled": raw,
        }
        with open(OUT, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        worst = max(spread.items(), key=lambda kv: kv[1]["spread"] /
                    kv[1]["bound"])
        print(f"{name}: digest {untraced['results_digest']}, widest spread "
              f"{worst[0]} {worst[1]['spread']:.3f} (bound "
              f"{worst[1]['bound']})")


if __name__ == "__main__":
    main()
