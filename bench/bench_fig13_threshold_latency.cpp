/**
 * @file
 * Fig. 13 (with Table 2): latency profile under threshold settings I-VI.
 *
 * Reproduction target: more aggressive settings (higher TL_low/TL_high)
 * keep links slower and trade latency for power — latency curves order
 * I < II < ... < VI at a given injection rate.
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
    bench::printHeader("Figure 13",
                       "latency under Table 2 threshold settings I-VI",
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

    Table t({"rate", "lat I", "lat II", "lat III", "lat IV", "lat V",
             "lat VI"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::vector<std::string> row{Table::num(rates[i], 2)};
        for (int s = 0; s < 6; ++s) {
            row.push_back(Table::num(
                series[static_cast<std::size_t>(s)][i]
                    .results.avgLatencyCycles, 1));
        }
        t.addRow(row);
    }
    bench::printTable(t, opts);

    // Shape check: mean latency should be non-decreasing I -> VI.
    std::printf("\nmean latency across the sweep:\n");
    for (int s = 0; s < 6; ++s) {
        double sum = 0.0;
        for (const auto &pt : series[static_cast<std::size_t>(s)])
            sum += pt.results.avgLatencyCycles;
        std::printf("  setting %-3s : %7.1f cycles\n", names[s],
                    sum / static_cast<double>(rates.size()));
    }
    std::printf("paper shape: latency grows with threshold "
                "aggressiveness (I lowest, VI highest).\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
