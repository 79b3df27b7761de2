/**
 * @file
 * Fig. 15: the latency vs dynamic-power-savings Pareto curve at a fixed
 * injection rate of 1.7 packets/cycle, traced by threshold settings
 * I-VI.
 *
 * Reproduction target: a monotone frontier — improving power savings is
 * only possible by giving up latency (and vice versa), confirming that
 * DVS-link policies trade the two off rather than dominating.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "core/history_policy.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate"});
    bench::printHeader(
        "Figure 15",
        "Pareto curve of latency vs power savings at 1.7 pkt/cycle",
        opts);

    const double rate = bench::rateOption(opts, "rate", 1.7);
    const char *names[] = {"I", "II", "III", "IV", "V", "VI"};

    // One job per curve point: the no-DVS baseline plus settings I-VI,
    // all on one worker pool.
    std::vector<network::ExperimentSpec> specs;
    network::ExperimentSpec base = bench::paperSpec(opts);
    base.network.policy = network::PolicyKind::None;
    specs.push_back(base);
    for (int s = 0; s < 6; ++s) {
        network::ExperimentSpec spec = bench::paperSpec(opts);
        spec.network.policy = network::PolicyKind::History;
        spec.network.policyParams =
            core::HistoryDvsParams::thresholdSetting(s);
        specs.push_back(spec);
    }
    const auto points = bench::runPoints(
        opts, specs, std::vector<double>(specs.size(), rate));
    const auto &baseRes = points[0];

    Table t({"setting", "TL_low/TL_high", "latency (cycles)",
             "latency vs no-DVS", "power savings"});
    t.addRow({"no-DVS", "-", Table::num(baseRes.avgLatencyCycles, 1),
              "1.00x", "1.00x"});

    double prevSavings = 0.0;
    bool monotone = true;
    std::vector<std::pair<double, double>> frontier;
    for (int s = 0; s < 6; ++s) {
        const auto params = core::HistoryDvsParams::thresholdSetting(s);
        const auto &res = points[static_cast<std::size_t>(s) + 1];
        t.addRow({names[s],
                  Table::num(params.tlLow, 2) + "/" +
                      Table::num(params.tlHigh, 2),
                  Table::num(res.avgLatencyCycles, 1),
                  Table::num(res.avgLatencyCycles /
                             baseRes.avgLatencyCycles, 2) + "x",
                  Table::num(res.savingsFactor, 2) + "x"});
        monotone &= res.savingsFactor >= prevSavings - 0.05;
        prevSavings = res.savingsFactor;
        frontier.push_back({res.avgLatencyCycles, res.savingsFactor});
    }
    bench::printTable(t, opts);

    std::printf("\npaper shape: a trade-off frontier — higher savings "
                "only at higher latency\n(settings trace the curve "
                "I -> VI).  Frontier monotone in savings: %s\n",
                monotone ? "yes" : "no");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
