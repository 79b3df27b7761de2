/**
 * @file
 * Fig. 9: temporal variance of the injected workload at one router — the
 * packet-creation count at a single node sampled over fixed intervals.
 *
 * Reproduction target: bursty, long-range-dependent arrivals whose
 * per-interval counts are far more variable than a Poisson process of
 * the same mean (index of dispersion >> 1), and which remain bursty as
 * the aggregation interval grows (the self-similarity signature).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "network/network.hpp"
#include "traffic/task_model.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate", "node", "interval"});
    bench::printHeader("Figure 9",
                       "temporal variance of injection at one router",
                       opts);

    network::ExperimentSpec spec = bench::paperSpec(opts);
    spec.network.policy = network::PolicyKind::None;

    network::Network net(spec.network);
    traffic::TwoLevelParams wl = spec.workload;
    wl.networkInjectionRate = bench::rateOption(opts, "rate", 1.0);
    traffic::TwoLevelWorkload workload(net.topology(), wl);
    net.attachTraffic(workload);

    const NodeId node =
        opts.raw.integer<NodeId>("node", net.topology().nodeId({3, 3}), 0,
                                 net.topology().numNodes() - 1);
    const Cycle interval = opts.raw.count("interval", 2000, 1);

    // Temporal variance in the two-level model lives at the task
    // timescale (1 ms = 1M cycles): within a task the 128-source
    // multiplex is nearly Poisson, and burstiness comes from sessions
    // starting/ending at this node.  The horizon must therefore span
    // many task lifetimes — this bench defaults to 2M cycles (~60 s
    // wall) instead of the suite-wide default.  Quick mode keeps just
    // enough intervals for every aggregation row of the table.
    opts.measure =
        opts.raw.countEnv("cycles", opts.quick ? 200000 : 2000000);

    // Sample per-interval creation counts across the run.
    std::vector<std::uint64_t> counts;
    std::uint64_t last = 0;
    net.runUntilCycle(opts.lightWarmup);
    last = net.packetsCreatedAt(node);
    const Cycle end = opts.lightWarmup + opts.measure;
    for (Cycle c = opts.lightWarmup + interval; c <= end; c += interval) {
        net.runUntilCycle(c);
        const std::uint64_t now = net.packetsCreatedAt(node);
        counts.push_back(now - last);
        last = now;
    }

    // Time-series strip chart of the first 60 intervals.
    std::printf("\ninjection count per %llu-cycle interval at node %d "
                "(first 60 intervals):\n\n",
                static_cast<unsigned long long>(interval), node);
    std::uint64_t peak = 1;
    for (auto c : counts)
        peak = std::max(peak, c);
    for (std::size_t i = 0; i < counts.size() && i < 60; ++i) {
        const int bar = static_cast<int>(
            50.0 * static_cast<double>(counts[i]) /
            static_cast<double>(peak));
        std::printf("  t=%5llu |%-50s| %llu\n",
                    static_cast<unsigned long long>(
                        static_cast<Cycle>(i) * interval),
                    std::string(static_cast<std::size_t>(bar), '#')
                        .c_str(),
                    static_cast<unsigned long long>(counts[i]));
    }

    // Index of dispersion at multiple aggregation scales.
    std::printf("\nindex of dispersion (var/mean; Poisson ~ 1) vs "
                "aggregation scale:\n");
    Table t({"aggregation (intervals)", "mean", "var/mean"});
    for (std::size_t agg : {std::size_t{1}, std::size_t{4},
                            std::size_t{16}}) {
        RunningStat s;
        for (std::size_t i = 0; i + agg <= counts.size(); i += agg) {
            double sum = 0.0;
            for (std::size_t j = 0; j < agg; ++j)
                sum += static_cast<double>(counts[i + j]);
            s.add(sum);
        }
        if (s.count() < 4)
            continue;
        t.addRow({Table::num(static_cast<std::uint64_t>(agg)),
                  Table::num(s.mean(), 1),
                  Table::num(s.variance() / s.mean(), 1)});
    }
    bench::printTable(t, opts);
    std::printf("\npaper shape: burstiness persists across timescales "
                "(var/mean stays >> 1 as\nthe aggregation scale grows — "
                "Poisson would decay toward 1).\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
