#!/usr/bin/env python3
"""Rung-vs-full error of paired objective differences in a search journal.

For every rung below the last, and every pair of candidates evaluated at
that rung and at full fidelity, compute |delta_rung - delta_full| per
objective, where delta is the pair's objective difference.  The culling
rule is sound while this error stays within twice the rung's slack, so
the table prints its median, 95th percentile and maximum next to the
slack the driver derived.

Each rung is reported twice: over all pairs, and over pairs of
"unsaturated" candidates, whose full-fidelity latency is at most twice
the lowest one in the journal.  That is the paper's 2x-zero-load rule
with the best candidate standing in for zero load; past it, average
latency grows with the measurement window, so no slack bounds it.

    python3 tools/search_pair_error.py JOURNAL.jsonl

The journal is what `bench_pareto_search journal=FILE` or
`tools/pareto_search journal=FILE` writes: a header line, then one
record per evaluation.
"""

import itertools
import json
import math
import sys

OBJECTIVES = (("latency", "avg_latency_cycles", "cycles"),
              ("power", "avg_power_w", "W"))


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def main(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    header, records = lines[0], lines[1:]
    ladder = header["search"]["rungs"]
    full = len(ladder) - 1

    by_rung = {}
    for rec in records:
        cand = json.dumps(rec["params"], sort_keys=True)
        by_rung.setdefault(rec["rung"], {})[cand] = rec["results"]
    at_full = by_rung.get(full, {})
    lowest = min(r["avg_latency_cycles"] for r in at_full.values())
    unsaturated = {c for c, r in at_full.items()
                   if r["avg_latency_cycles"] <= 2.0 * lowest}

    print(f"journal {path}: {len(records)} records, {len(at_full)} "
          f"candidates at full fidelity, {len(unsaturated)} unsaturated "
          f"(full latency <= {2.0 * lowest:.1f} cycles)")
    print("| rung | measure | pairs | objective | p50 | p95 | max | slack |")
    print("|---|---|---|---|---|---|---|---|")
    for rung in range(full):
        spec = ladder[rung]
        at_rung = by_rung.get(rung, {})
        shared = sorted(set(at_rung) & set(at_full))
        for subset, which in ((shared, ""),
                              ([c for c in shared if c in unsaturated],
                               " unsaturated")):
            pairs = list(itertools.combinations(subset, 2))
            for name, field, unit in OBJECTIVES:
                values = [r[field] for r in at_rung.values()]
                explicit = spec["slack_" + name]
                slack = explicit if explicit > 0 else \
                    spec["slack_fraction"] * (max(values) - min(values))
                errors = [abs((at_rung[a][field] - at_rung[b][field]) -
                              (at_full[a][field] - at_full[b][field]))
                          for a, b in pairs]
                if not errors:
                    continue
                print(f"| {rung} | {spec['measure_cycles']} | "
                      f"{len(pairs)}{which} | {name} ({unit}) | "
                      f"{percentile(errors, 50):.4g} | "
                      f"{percentile(errors, 95):.4g} | {max(errors):.4g} | "
                      f"{slack:.4g} |")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
