#!/usr/bin/env python3
"""The dvsnet repository benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the measuring binary from source into
.bench_build/perfbench (CMake, first run only), runs the workload for S
seconds with min(4, nproc) worker threads, prints every metric by name
with its unit, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes the spans to .bench_build/perfbench/spans/.  The full result of
every run is kept in .bench_build/perfbench/results/.

Exits non-zero when the build fails, when the binary fails, or when the
correctness gate rejects an output.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dvsnet_perfbench")
BUILD_TIMEOUT_S = 800
# A run may take twice --seconds (its last round overruns the budget) plus
# this margin for set-up, the minimum of three rounds and the traced passes.
RUN_MARGIN_S = 120


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def _run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    try:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    """Configure (first time) and build the binary; exit on failure."""
    for rel in ("src/CMakeLists.txt", "bench/bench_util.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die(f"{rel} not found: the benchmark builds dvsnet from source")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(cache):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", BUILD, "-j", str(threads())])
        for cmd in steps:
            if _run_logged(cmd, log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (log: .bench_build/perfbench/build.log)")


def run_binary(workload, seed, seconds, trace, nthreads, tiny=False):
    """Run the measuring binary; return its result object (None on error)."""
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}-t{nthreads}" + \
        ("-tiny" if tiny else "")
    out = os.path.join(results, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(nthreads), "--out", out]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, tag + ".json")]
    if tiny:
        cmd.append("--tiny")
    # bench::parseOptions reads DVSNET_* overrides; strip them so that
    # every input is on the command line.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DVSNET_")}
    timeout = 2 * seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {timeout} s", file=sys.stderr)
        return None
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 2) or not os.path.isfile(out):
        print(f"perfbench: binary exited with {proc.returncode}",
              file=sys.stderr)
        return None
    with open(out) as f:
        return json.load(f)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    result = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        threads())
    if result is None:
        sys.exit(1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = bool(result["correct"])
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"threads {result['threads']} (nproc {result['nproc']})  "
          f"trace {args.trace}")
    print(f"results_digest {result['results_digest']}")
    for m in wanted:
        value = result["metrics"].get(m["name"])
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if ok and not args.trace and value <= 0:
            ok = False
        if not ok:
            correct = False
            print(f"  {m['name']:<28} invalid ({value!r})")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:.6g} {m['unit']}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    info = result.get("info", {})
    if not args.trace:
        ratio = info.get("model.latency_ratio", -1)
        print(f"  {'model.latency_ratio':<28} " +
              (f"{ratio:.6g} ratio" if ratio > 0 else
               "n/a (needs matched no-DVS points: fig10-sweep only)"))
    print(f"  {'failed_frac':<28} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} attempted)")
    for key in sorted(info):
        if not key.startswith("model."):
            print(f"  info.{key} = {info[key]:.6g}")
    for failure in result.get("failures", []):
        print(f"  FAILED: {failure}")

    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
