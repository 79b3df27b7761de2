/**
 * @file
 * Fig. 14 (with Table 2): power-consumption profile under threshold
 * settings I-VI.
 *
 * Reproduction target: the mirror image of Fig. 13 — more aggressive
 * settings save more power at every rate (normalized power orders
 * VI < V < ... < I).
 */

#include <cstdio>

#include "bench_util.hpp"
#include "core/history_policy.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv, {.sweepPoints = 5});
    bench::rejectUnknownKeys(opts);
    bench::printHeader("Figure 14",
                       "power under Table 2 threshold settings I-VI",
                       opts);

    const auto rates = network::rateGrid(
        0.4, 2.0, static_cast<std::size_t>(opts.sweepPoints));
    const char *names[] = {"I", "II", "III", "IV", "V", "VI"};

    std::vector<network::ExperimentSpec> specs;
    for (int s = 0; s < 6; ++s) {
        network::ExperimentSpec spec = bench::paperSpec(opts);
        spec.network.policy = network::PolicyKind::History;
        spec.network.policyParams =
            core::HistoryDvsParams::thresholdSetting(s);
        specs.push_back(spec);
    }
    const auto series = bench::runSweeps(opts, specs, rates);

    Table t({"rate", "pwr I", "pwr II", "pwr III", "pwr IV", "pwr V",
             "pwr VI"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::vector<std::string> row{Table::num(rates[i], 2)};
        for (int s = 0; s < 6; ++s) {
            row.push_back(Table::num(
                series[static_cast<std::size_t>(s)][i]
                    .results.normalizedPower, 3));
        }
        t.addRow(row);
    }
    bench::printTable(t, opts);

    std::printf("\nmean power savings across the sweep:\n");
    for (int s = 0; s < 6; ++s) {
        double sum = 0.0;
        for (const auto &pt : series[static_cast<std::size_t>(s)])
            sum += pt.results.savingsFactor;
        std::printf("  setting %-3s : %5.2fx\n", names[s],
                    sum / static_cast<double>(rates.size()));
    }
    std::printf("paper shape: savings grow with threshold "
                "aggressiveness (VI highest).\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
