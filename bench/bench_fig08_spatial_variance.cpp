/**
 * @file
 * Fig. 8: spatial variance of the injected two-level workload — a
 * per-node injection heat map over one run.
 *
 * A node injects the packets an open-loop generator creates for it, so
 * the bench counts them in a recording (traffic::PacketStream::record).
 *
 * Reproduction target: pronounced node-to-node imbalance (task sessions
 * concentrate traffic at their source nodes), unlike uniform random
 * injection whose per-node counts are statistically flat.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "traffic/stream.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv, bench::kDvsOffDefaults);
    // No network runs: `points`, `threads` and `link-power` reach nothing.
    opts.raw.rejectUnknownKeys({"quick", "warmup", "cycles", "seed", "csv",
                                "json", "workload", "tasks",
                                "task_duration", "sources", "rate"});
    const network::ExperimentSpec spec = bench::paperSpec(opts);
    const topo::KAryNCube topo(spec.network.radix, spec.network.dims,
                               spec.network.torus);
    const auto workload = bench::openLoopWorkload(
        opts, spec, topo, bench::rateOption(opts, "rate", 1.0));
    bench::printHeader("Figure 8",
                       "spatial variance of the injected workload", opts);

    // Packets created per node through the end of the measurement.
    const auto stream = traffic::PacketStream::record(
        *workload, cyclesToTicks(opts.warmup + opts.measure));
    std::vector<std::uint64_t> created(topo.numNodes());
    const auto cursor = stream->cursor();
    for (traffic::StreamPacket p; cursor->next(p);)
        ++created[static_cast<std::size_t>(p.request.src)];

    // Heat map of packets created per node.
    std::uint64_t peak = 1;
    for (const auto count : created)
        peak = std::max(peak, count);

    std::printf("\npackets injected per node (8x8 grid; %% of peak "
                "%llu):\n\n", static_cast<unsigned long long>(peak));
    for (std::int32_t y = topo.radix() - 1; y >= 0; --y) {
        std::printf("  y=%d |", y);
        for (std::int32_t x = 0; x < topo.radix(); ++x) {
            const auto count =
                created[static_cast<std::size_t>(topo.nodeId({x, y}))];
            std::printf(" %5.1f",
                        100.0 * static_cast<double>(count) /
                            static_cast<double>(peak));
        }
        std::printf("\n");
    }

    // Imbalance statistics.
    RunningStat perNode;
    for (const auto count : created)
        perNode.add(static_cast<double>(count));

    Table t({"metric", "value"});
    t.addRow({"mean packets/node", Table::num(perNode.mean(), 1)});
    t.addRow({"stddev", Table::num(perNode.stddev(), 1)});
    t.addRow({"coefficient of variation",
              Table::num(perNode.stddev() / perNode.mean(), 3)});
    t.addRow({"max/mean", Table::num(perNode.max() / perNode.mean(), 2)});
    t.addRow({"min/mean", Table::num(perNode.min() / perNode.mean(), 2)});
    t.addRow({"variance-to-mean ratio (Poisson ~ 1)",
              Table::num(perNode.variance() / perNode.mean(), 1)});
    std::printf("\n");
    bench::printTable(t, opts);
    std::printf("\npaper shape: strong spatial imbalance "
                "(variance-to-mean >> 1).\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
