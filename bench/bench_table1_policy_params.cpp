/**
 * @file
 * Table 1: parameters of the history-based DVS policy, as wired into the
 * library defaults (plus Table 2's threshold settings I-VI).
 */

#include <cstdio>

#include "bench_util.hpp"
#include "core/history_policy.hpp"
#include "network/network.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    // Nothing is simulated: only the output keys are read.
    opts.raw.rejectUnknownKeys({"quick", "csv", "json"});
    bench::printHeader("Table 1", "history-based DVS policy parameters",
                       opts);

    const core::HistoryDvsParams params;
    const network::NetworkConfig cfg;

    Table t({"parameter", "paper", "library default"});
    t.addRow({"W (EWMA weight)", "3", Table::num(params.weight, 0)});
    t.addRow({"H (history window, cycles)", "200",
              Table::num(static_cast<std::uint64_t>(cfg.policyWindow))});
    t.addRow({"B_congested", "0.5", Table::num(params.bCongested, 2)});
    t.addRow({"TL_low", "0.3", Table::num(params.tlLow, 2)});
    t.addRow({"TL_high", "0.4", Table::num(params.tlHigh, 2)});
    t.addRow({"TH_low", "0.6", Table::num(params.thLow, 2)});
    t.addRow({"TH_high", "0.7", Table::num(params.thHigh, 2)});
    bench::printTable(t, opts);

    std::printf("\nTable 2 threshold settings (trade-off study):\n");
    Table t2({"setting", "TL_low", "TL_high"});
    const char *names[] = {"I", "II", "III", "IV", "V", "VI"};
    for (int s = 0; s < 6; ++s) {
        const auto p = core::HistoryDvsParams::thresholdSetting(s);
        t2.addRow({names[s], Table::num(p.tlLow, 2),
                   Table::num(p.tlHigh, 2)});
    }
    bench::printTable(t2, opts);
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
