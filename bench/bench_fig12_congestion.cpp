/**
 * @file
 * Fig. 12: power consumption and network throughput beyond saturation
 * (history-based DVS, 100 tasks).
 *
 * Reproduction target: as injection rises past saturation, throughput
 * first climbs then falls; network power climbs with throughput and
 * *dips* once overall throughput decreases — because the distributed
 * policy only slows the lightly-utilized links feeding congested
 * routers, and link utilization tracks delivered throughput.
 */

#include <cstdio>

#include "bench_util.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate_lo", "rate_hi"});
    bench::printHeader(
        "Figure 12",
        "power and throughput under congestion (DVS, 100 tasks)", opts);

    network::ExperimentSpec spec = bench::paperSpec(opts);
    spec.network.policy = network::PolicyKind::History;

    const auto rates = bench::defaultRates(opts, 1.0, 5.0);
    const auto series = bench::runSweeps(opts, {spec}, rates).front();

    Table t({"rate", "offered", "throughput", "norm power", "power (W)",
             "avg level", "latency"});
    for (const auto &pt : series) {
        const auto &r = pt.results;
        t.addRow({Table::num(pt.injectionRate, 2),
                  Table::num(r.offeredLoadPktsPerCycle, 2),
                  Table::num(r.throughputPktsPerCycle, 3),
                  Table::num(r.normalizedPower, 3),
                  Table::num(r.avgPowerW, 1),
                  Table::num(r.avgChannelLevel, 2),
                  Table::num(r.avgLatencyCycles, 0)});
    }
    bench::printTable(t, opts);

    // Shape check: locate the throughput and power peaks.
    std::size_t thrPeak = 0, powPeak = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].results.throughputPktsPerCycle >
            series[thrPeak].results.throughputPktsPerCycle)
            thrPeak = i;
        if (series[i].results.normalizedPower >
            series[powPeak].results.normalizedPower)
            powPeak = i;
    }
    std::printf("\nthroughput peaks at rate %.2f; normalized power peaks "
                "at rate %.2f\n",
                series[thrPeak].injectionRate,
                series[powPeak].injectionRate);
    std::printf("paper shape: power rises while throughput rises, then "
                "dips as the whole\nnetwork congests and throughput "
                "falls.\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
