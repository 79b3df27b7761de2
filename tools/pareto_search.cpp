/**
 * @file
 * Resumable Pareto-frontier search CLI over the DVS policy space.
 *
 *   pareto_search [search=NAME[:key=val,...]] [rate=R] [--seed S]
 *                 [journal=FILE] [resume=FILE] [cache=FILE[,FILE...]]
 *                 [--quick] [--json FILE] [--threads N] ...
 *
 * The `search=` spec is a spec string (common/spec.hpp), like
 * `--workload` and `--link-power` (only "successive-halving" is
 * registered; keys: budget, candidates, rungs, slack, step).  `journal=` writes the evaluation journal as it
 * goes; `resume=` warm-loads a (possibly torn) journal from a killed
 * run and rewrites it in place — the final front and journal are
 * byte-identical to an uninterrupted run at the same seed.  `cache=`
 * warm-loads extra journals without rewriting them (shard merge).
 *
 * All the usual bench flags apply (`--quick`, `--json` for the
 * dvsnet-bench-v1 artifact, `--workload`, fidelity overrides); unknown
 * search strategies and keys exit with the registry's vocabulary, and
 * a key the tool does not read exits naming it.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "search_cli.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownSearchKeys(opts);
    bench::printHeader(
        "Pareto search",
        "resumable multi-objective DVS policy search", opts);

    auto config = bench::searchConfigFromOptions(opts);
    const std::string spec = bench::searchSpecString(opts);
    std::printf("search spec: %s\n", spec.c_str());
    if (!config.journalPath.empty())
        std::printf("journal: %s\n", config.journalPath.c_str());
    for (const auto &warm : config.warmJournals)
        std::printf("warm cache: %s\n", warm.c_str());

    CounterRegistry registry;
    search::SearchDriver driver(config, &registry);
    const auto outcome = driver.run();

    std::printf("\ncandidates: %zu   network evals: %llu (%llu full "
                "fidelity, %llu continued)   cache hits: %llu   culled: "
                "%llu\n",
                outcome.candidates.size(),
                static_cast<unsigned long long>(outcome.networkEvals),
                static_cast<unsigned long long>(outcome.networkEvalsFull),
                static_cast<unsigned long long>(outcome.continued),
                static_cast<unsigned long long>(outcome.cacheHits),
                static_cast<unsigned long long>(outcome.culled));
    if (!outcome.completed)
        std::printf("budget exhausted before the last rung — resume "
                    "with resume=%s and a larger budget to finish\n",
                    config.journalPath.empty() ? "JOURNAL"
                                               : config.journalPath.c_str());

    std::printf("\nPareto front (%zu points):\n", outcome.front.size());
    bench::printTable(bench::frontTable(outcome.front), opts);

    bench::recordResult(bench::searchResultJson(outcome, spec));
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
