/**
 * @file
 * Fig. 16: network performance with DVS links of varying *voltage*
 * transition rates (10/5/1 us), across the four sub-plot regimes:
 *
 *   (a) 1 ms tasks, 100-cycle frequency locks
 *   (b) 10 us tasks, 100-cycle frequency locks
 *   (c) 1 ms tasks, 10-cycle frequency locks
 *   (d) 10 us tasks, 10-cycle frequency locks
 *
 * Reproduction targets: with slow traffic (1 ms tasks) voltage latency
 * mostly adds latency overhead — and with 100-cycle locks a *faster*
 * voltage ramp can even hurt (more frequent transitions mean more
 * link-disabled lock windows, the paper's "strange phenomenon").  With
 * fast traffic (10 us tasks) long voltage ramps delay frequency
 * increases and visibly cost throughput.
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
        "Figure 16",
        "sensitivity to voltage transition latency (10/5/1 us)", opts);

    const auto rates = network::rateGrid(
        0.6, 2.0, static_cast<std::size_t>(opts.sweepPoints));
    const double vtransUs[] = {10.0, 5.0, 1.0};

    struct SubPlot
    {
        const char *label;
        double taskDurationCycles;
        Cycle freqLockCycles;
    };
    const SubPlot plots[] = {
        {"(a) 1ms tasks, 100-cycle freq lock", 1e6, 100},
        {"(b) 10us tasks, 100-cycle freq lock", 1e4, 100},
        {"(c) 1ms tasks, 10-cycle freq lock", 1e6, 10},
        {"(d) 10us tasks, 10-cycle freq lock", 1e4, 10},
    };

    // All 12 sweeps (4 regimes x 3 ramp speeds) share one worker pool.
    std::vector<network::ExperimentSpec> specs;
    for (const auto &plot : plots) {
        for (double vt : vtransUs) {
            network::ExperimentSpec spec = bench::paperSpec(opts);
            spec.network.policy = network::PolicyKind::History;
            spec.workload.meanTaskDurationCycles =
                plot.taskDurationCycles;
            spec.network.link.freqTransitionLinkCycles =
                plot.freqLockCycles;
            spec.network.link.voltageTransitionLatency =
                secondsToTicks(vt * 1e-6);
            specs.push_back(spec);
        }
    }
    const auto allSeries = bench::runSweeps(opts, specs, rates);

    for (std::size_t p = 0; p < std::size(plots); ++p) {
        const auto &plot = plots[p];
        std::printf("\n%s\n", plot.label);
        Table t({"rate", "lat 10us", "lat 5us", "lat 1us", "thr 10us",
                 "thr 5us", "thr 1us"});

        const auto *series = &allSeries[p * std::size(vtransUs)];

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
        "\npaper shapes: (a) faster voltage ramps need not help (more "
        "transitions, more\nlock windows); (c) with cheap locks the "
        "effect disappears; (b)/(d) short tasks\nmake long voltage ramps "
        "cost throughput.\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
