/**
 * @file
 * Fig. 17: network performance with DVS links of varying *frequency*
 * transition (lock) durations (100/50/10 link cycles), across the four
 * sub-plot regimes:
 *
 *   (a) 1 ms tasks, 10 us voltage ramps
 *   (b) 10 us tasks, 10 us voltage ramps
 *   (c) 1 ms tasks, 1 us voltage ramps
 *   (d) 10 us tasks, 1 us voltage ramps
 *
 * Reproduction targets: with 1 ms tasks the transitions are fast enough
 * to track the traffic, so lock duration only adds latency overhead;
 * with 10 us tasks slow transitions respond too late and degrade
 * throughput.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv, {.sweepPoints = 3});
    bench::rejectUnknownKeys(opts);
    bench::printHeader(
        "Figure 17",
        "sensitivity to frequency transition duration (100/50/10 cycles)",
        opts);

    const auto rates = network::rateGrid(
        0.6, 2.0, static_cast<std::size_t>(opts.sweepPoints));
    const Cycle locks[] = {100, 50, 10};

    struct SubPlot
    {
        const char *label;
        double taskDurationCycles;
        double voltageUs;
    };
    const SubPlot plots[] = {
        {"(a) 1ms tasks, 10us voltage ramp", 1e6, 10.0},
        {"(b) 10us tasks, 10us voltage ramp", 1e4, 10.0},
        {"(c) 1ms tasks, 1us voltage ramp", 1e6, 1.0},
        {"(d) 10us tasks, 1us voltage ramp", 1e4, 1.0},
    };

    // All 12 sweeps (4 regimes x 3 lock durations) share one pool.
    std::vector<network::ExperimentSpec> specs;
    for (const auto &plot : plots) {
        for (Cycle lock : locks) {
            network::ExperimentSpec spec = bench::paperSpec(opts);
            spec.network.policy = network::PolicyKind::History;
            spec.workload.meanTaskDurationCycles =
                plot.taskDurationCycles;
            spec.network.link.freqTransitionLinkCycles = lock;
            spec.network.link.voltageTransitionLatency =
                secondsToTicks(plot.voltageUs * 1e-6);
            specs.push_back(spec);
        }
    }
    const auto allSeries = bench::runSweeps(opts, specs, rates);

    for (std::size_t p = 0; p < std::size(plots); ++p) {
        const auto &plot = plots[p];
        std::printf("\n%s\n", plot.label);
        Table t({"rate", "lat 100c", "lat 50c", "lat 10c", "thr 100c",
                 "thr 50c", "thr 10c"});

        const auto *series = &allSeries[p * std::size(locks)];

        for (std::size_t i = 0; i < rates.size(); ++i) {
            t.addRow({Table::num(rates[i], 2),
                      Table::num(series[0][i].results.avgLatencyCycles, 1),
                      Table::num(series[1][i].results.avgLatencyCycles, 1),
                      Table::num(series[2][i].results.avgLatencyCycles, 1),
                      Table::num(
                          series[0][i].results.throughputPktsPerCycle, 3),
                      Table::num(
                          series[1][i].results.throughputPktsPerCycle, 3),
                      Table::num(
                          series[2][i].results.throughputPktsPerCycle,
                          3)});
        }
        bench::printTable(t, opts);
    }

    std::printf(
        "\npaper shapes: (a)/(c) long tasks — lock duration is latency "
        "overhead only;\n(b)/(d) short tasks — slow transitions lag the "
        "traffic and cost throughput.\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
