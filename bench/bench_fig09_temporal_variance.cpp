/**
 * @file
 * Fig. 9: temporal variance of the injected workload at one router — the
 * packet-creation count at a single node sampled over fixed intervals.
 *
 * Reproduction target: bursty, long-range-dependent arrivals whose
 * per-interval counts are far more variable than a Poisson process of
 * the same mean (index of dispersion >> 1), and which remain bursty as
 * the aggregation interval grows (the self-similarity signature).
 *
 * Like Fig. 8, the bench counts the node's packets in a recording of
 * the open-loop workload (traffic::PacketStream::record).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "traffic/stream.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    // Temporal variance in the two-level model lives at the task
    // timescale (1 ms = 1M cycles): within a task the 128-source
    // multiplex is nearly Poisson, and burstiness comes from sessions
    // starting/ending at this node.  The horizon must therefore span
    // many task lifetimes — this bench measures 2M cycles by default
    // instead of the suite-wide default.  Quick mode keeps just enough
    // intervals for every aggregation row of the table.
    const auto opts = bench::parseOptions(argc, argv,
                                          {.warmup = 20000,
                                           .measure = 2000000,
                                           .quickWarmup = 1000,
                                           .quickMeasure = 200000});
    // No network runs: `points`, `threads` and `link-power` reach nothing.
    opts.raw.rejectUnknownKeys({"quick", "warmup", "cycles", "seed", "csv",
                                "json", "workload", "tasks",
                                "task_duration", "sources", "rate", "node",
                                "interval"});
    const network::ExperimentSpec spec = bench::paperSpec(opts);
    const topo::KAryNCube topo(spec.network.radix, spec.network.dims,
                               spec.network.torus);
    const auto workload = bench::openLoopWorkload(
        opts, spec, topo, bench::rateOption(opts, "rate", 1.0));
    const NodeId node = opts.raw.integer<NodeId>(
        "node", topo.nodeId({3, 3}), 0, topo.numNodes() - 1);
    const Cycle interval = opts.raw.count("interval", 2000, 1);
    bench::printHeader("Figure 9",
                       "temporal variance of injection at one router",
                       opts);

    // Per-interval creation counts at the node: interval k holds the
    // packets created in (start + k I, start + (k + 1) I], the
    // measurement's whole intervals.
    const auto stream = traffic::PacketStream::record(
        *workload, cyclesToTicks(opts.warmup + opts.measure));
    const Tick start = cyclesToTicks(opts.warmup);
    const Tick width = cyclesToTicks(interval);
    std::vector<std::uint64_t> counts(opts.measure / interval);
    const auto cursor = stream->cursor();
    for (traffic::StreamPacket p; cursor->next(p);) {
        const Tick k = (p.when - start - 1) / width;  // valid if p.when > start
        if (p.request.src == node && p.when > start && k < counts.size())
            ++counts[k];
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
