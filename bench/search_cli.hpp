/**
 * @file
 * Shared plumbing between the `pareto_search` tool and
 * `bench_pareto_search`: the keys both accept, building a
 * search::SearchConfig from bench options (the `search=<spec>` grammar
 * plus journal/resume/cache keys), the fixed Fig. 15 threshold grid the
 * search is compared against, and the typed `pareto_search` artifact
 * entry both binaries record.
 */

#pragma once

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "search/driver.hpp"

namespace dvsnet::bench
{

/**
 * The fixed threshold grid standing in for Fig. 15's policy sweep:
 * Table 2's TL_low/TL_high settings I-VI plus the midpoint between each
 * consecutive pair (11 points).  The search seeds these candidates, so
 * grid evaluations shared with the search's final rung are cache hits
 * with bit-identical numbers.
 */
std::vector<search::Candidate> fig15GridCandidates();

/**
 * Build the search configuration from bench options:
 *  - base experiment = paperSpec(opts) at `rate=` (default 1.2 —
 *    below this reproduction's saturation, where average latency is
 *    stable across measurement-window sizes and the rung slack model
 *    is sound; Fig. 15's 1.7 saturates the aggressive settings);
 *  - `search=<name>[:key=val,...]` (default "successive-halving")
 *    validated against the search registry and folded into the
 *    candidate count / fidelity ladder / evaluation budget;
 *  - `journal=FILE` writes the evaluation journal;
 *  - `resume=FILE` warm-loads FILE and (unless `journal=` overrides)
 *    rewrites it in place — the classic resume flow;
 *  - `cache=FILE[,FILE...]` warm-loads extra journals (shard merge).
 * @throws ConfigError on an invalid spec or value, like the other bench
 * option readers.
 */
search::SearchConfig searchConfigFromOptions(const BenchOptions &opts);

/**
 * bench::rejectUnknownKeys for a search binary, which also reads
 * searchConfigFromOptions's keys.
 */
void rejectUnknownSearchKeys(const BenchOptions &opts);

/** The `search=` spec string in effect for `opts` (default applied). */
std::string searchSpecString(const BenchOptions &opts);

/** Human-readable front table: parameters + objectives per point. */
Table frontTable(const search::ParetoFront &front);

/**
 * Typed `pareto_search` artifact entry: search spec echo, completion
 * flag, candidate/evaluation/cache/continuation counters and the full
 * front — the fields bench_json_check validates.
 */
Json searchResultJson(const search::SearchOutcome &outcome,
                      const std::string &specString);

} // namespace dvsnet::bench
