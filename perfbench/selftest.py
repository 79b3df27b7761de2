#!/usr/bin/env python3
"""Fast self-test of the benchmark on a tiny configuration.

    python3 perfbench/selftest.py

Builds the benchmark, then runs every workload at --tiny fidelity (short
windows, few tasks) untraced at 1 and 4 threads and traced at 4 threads,
and checks that:
  - every run passes the benchmark's correctness gate;
  - results_digest is identical at 1 and 4 threads, and in the traced run;
  - exp.parallel_efficiency is in (0, 1] and workload.share in [0, 1];
  - the spans file holds the root span and every span's parent;
  - every metric of BENCHMARK.json is reported, with a finite value;
  - every workload, metric and span name matches [A-Za-z0-9_.-]+.
Exits non-zero when a check fails.  Takes about a minute on 4 cores.
"""

import json
import math
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7


def main():
    spec = run.load_spec()
    run.build()
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in [w["name"] for w in spec["workloads"]] + e2e + layers:
        expect(NAME.fullmatch(name), f"name {name!r} has other characters")
    for wl in (w["name"] for w in spec["workloads"]):
        digests = {}
        for threads in (1, 4):
            r = run.run_binary(wl, SEED, 1, 0, threads, tiny=True)
            if r is None:
                problems.append(f"{wl}: untraced run at {threads} threads "
                                "failed")
                continue
            expect(r["correct"], f"{wl} t{threads}: {r['failures']}")
            digests[threads] = r["results_digest"]
            for name in e2e:
                v = r["metrics"].get(name)
                expect(isinstance(v, (int, float)) and math.isfinite(v) and
                       v > 0, f"{wl} t{threads}: {name} = {v!r}")
        expect(len(set(digests.values())) == 1,
               f"{wl}: results_digest differs across threads: {digests}")

        t = run.run_binary(wl, SEED, 1, 1, 4, tiny=True)
        if t is None:
            problems.append(f"{wl}: traced run failed")
            continue
        expect(t["correct"], f"{wl} traced: {t['failures']}")
        expect(t["results_digest"] == digests.get(4),
               f"{wl}: traced run's digest {t['results_digest']} != "
               f"untraced {digests.get(4)}")
        m = t["metrics"]
        for name in layers:
            v = m.get(name)
            expect(isinstance(v, (int, float)) and math.isfinite(v),
                   f"{wl} traced: {name} = {v!r}")
        pe = m.get("exp.parallel_efficiency", -1)
        expect(0 < pe <= 1, f"{wl}: exp.parallel_efficiency = {pe}")
        share = m.get("workload.share", -1)
        expect(0 <= share <= 1, f"{wl}: workload.share = {share}")
        spans = os.path.join(run.BUILD, "spans",
                             f"{wl}-seed{SEED}-trace1-t4-tiny.json")
        with open(spans) as f:
            span_list = json.load(f)["spans"]
        span_names = {s["name"] for s in span_list}
        expect(span_names, f"{wl}: no spans written")
        ids = {s["id"] for s in span_list}
        roots = [s["name"] for s in span_list if s["parent"] == 0]
        expect(roots == ["benchmark"], f"{wl}: root spans {roots}")
        orphans = {s["name"] for s in span_list
                   if s["parent"] != 0 and s["parent"] not in ids}
        expect(not orphans, f"{wl}: spans with no parent in the file: "
               f"{sorted(orphans)}")
        for name in span_names:
            expect(NAME.fullmatch(name), f"span name {name!r}")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
