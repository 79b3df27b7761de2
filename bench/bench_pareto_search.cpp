/**
 * @file
 * Pareto-frontier policy search vs the fixed Fig. 15 grid: the
 * successive-halving SearchDriver explores the DVS parameter space
 * (thresholds, history weight, transition cost, re-enable hysteresis)
 * at 1.2 pkt/cycle — below this reproduction's saturation, where the
 * rung slack model is sound (see search_cli.hpp) — then every grid
 * candidate is evaluated at full fidelity for comparison.
 *
 * Reproduction target: the searched front weakly dominates the fixed
 * threshold grid on {avg latency, avg power} while spending fewer
 * full-fidelity network evaluations than the grid has points — the
 * low-fidelity rungs do the pruning.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "search_cli.hpp"

using namespace dvsnet;

namespace
{

/** Weak dominance with a per-objective relative tolerance: some front
 *  point is <= g[k] * (1 + rel) in every objective. */
bool
coveredBy(const search::ParetoFront &front,
          const std::vector<double> &g, double rel)
{
    for (const auto &p : front.points()) {
        bool ok = true;
        for (std::size_t k = 0; k < g.size(); ++k)
            ok &= p.objectives[k] <= g[k] * (1.0 + rel);
        if (ok)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownSearchKeys(opts);
    bench::printHeader(
        "Pareto search",
        "successive-halving DVS policy search vs the fixed Fig. 15 grid",
        opts);

    auto config = bench::searchConfigFromOptions(opts);
    const std::string spec = bench::searchSpecString(opts);
    std::printf("search spec: %s\n", spec.c_str());

    CounterRegistry registry;
    search::SearchDriver driver(config, &registry);
    const auto outcome = driver.run();
    if (!outcome.completed)
        std::printf("note: evaluation budget exhausted before the last "
                    "rung — front reflects completed rungs only\n");

    Table front = bench::frontTable(outcome.front);
    std::printf("\nsearched Pareto front (%zu points):\n",
                outcome.front.size());
    bench::printTable(front, opts);

    // The fixed grid at full fidelity.  Grid candidates are seeded into
    // the search, so any that survived to the last rung come back as
    // cache hits here — bit-identical numbers, no extra network time.
    const std::uint64_t evalsBefore =
        registry.counterValue("search.network_evals");
    const auto grid = bench::fig15GridCandidates();
    search::ParetoFront gridFront(2);
    std::vector<std::vector<double>> gridObjectives;
    Table gt({"TL_low/TL_high", "latency (cycles)", "power (W)",
              "covered by search"});
    bool dominated = true;
    for (const auto &candidate : grid) {
        const auto record = driver.evaluateFull(candidate);
        const auto obj = record.objectives();
        const bool covered = coveredBy(outcome.front, obj, 1e-6);
        dominated &= covered;
        gridObjectives.push_back(obj);
        gridFront.insert(
            {obj, search::canonicalJson(record.params).dump(), {}});
        gt.addRow({Table::num(candidate.tlLow, 3) + "/" +
                       Table::num(candidate.tlHigh, 3),
                   Table::num(obj[0], 1), Table::num(obj[1], 3),
                   covered ? "yes" : "no"});
    }
    const std::uint64_t gridEvals =
        registry.counterValue("search.network_evals") - evalsBefore;

    std::printf("\nfixed Fig. 15 grid at full fidelity (%zu points, %llu "
                "fresh evaluations — the rest were search cache hits):\n",
                grid.size(),
                static_cast<unsigned long long>(gridEvals));
    bench::printTable(gt, opts);

    // Hypervolume against a shared reference corner 5% beyond the worst
    // observed value in either set (bigger = better front).
    double ref0 = 0.0;
    double ref1 = 0.0;
    for (const auto &p : outcome.front.points()) {
        ref0 = std::max(ref0, p.objectives[0]);
        ref1 = std::max(ref1, p.objectives[1]);
    }
    for (const auto &g : gridObjectives) {
        ref0 = std::max(ref0, g[0]);
        ref1 = std::max(ref1, g[1]);
    }
    ref0 *= 1.05;
    ref1 *= 1.05;
    const double hvSearch = outcome.front.hypervolume2d(ref0, ref1);
    const double hvGrid = gridFront.hypervolume2d(ref0, ref1);

    const bool fewerEvals = outcome.networkEvalsFull < grid.size();
    std::printf(
        "\nsearch full-fidelity evaluations: %llu vs %zu grid points "
        "(%s)\nhypervolume (ref %.1f cycles, %.3f W): search %.3f vs "
        "grid %.3f\nsearched front weakly dominates grid: %s\n",
        static_cast<unsigned long long>(outcome.networkEvalsFull),
        grid.size(), fewerEvals ? "fewer" : "NOT fewer", ref0, ref1,
        hvSearch, hvGrid, dominated ? "yes" : "no");

    Json entry = bench::searchResultJson(outcome, spec);
    entry["grid_points"] =
        Json(static_cast<std::uint64_t>(grid.size()));
    entry["grid_fresh_evals"] = Json(gridEvals);
    entry["grid_dominated"] = Json(dominated);
    entry["fewer_full_evals_than_grid"] = Json(fewerEvals);
    entry["hypervolume_search"] = Json(hvSearch);
    entry["hypervolume_grid"] = Json(hvGrid);
    bench::recordResult(std::move(entry));

    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
