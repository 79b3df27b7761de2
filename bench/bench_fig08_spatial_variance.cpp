/**
 * @file
 * Fig. 8: spatial variance of the injected two-level workload — a
 * per-node injection heat map over one run.
 *
 * Reproduction target: pronounced node-to-node imbalance (task sessions
 * concentrate traffic at their source nodes), unlike uniform random
 * injection whose per-node counts are statistically flat.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "network/network.hpp"
#include "traffic/task_model.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate"});
    bench::printHeader("Figure 8",
                       "spatial variance of the injected workload", opts);

    network::ExperimentSpec spec = bench::paperSpec(opts);
    spec.network.policy = network::PolicyKind::None;

    network::Network net(spec.network);
    traffic::TwoLevelParams wl = spec.workload;
    wl.networkInjectionRate = bench::rateOption(opts, "rate", 1.0);
    traffic::TwoLevelWorkload workload(net.topology(), wl);
    net.attachTraffic(workload);

    net.run(opts.lightWarmup, opts.measure);

    // Heat map of packets created per node.
    const auto &topo = net.topology();
    std::uint64_t peak = 1;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        peak = std::max(peak, net.packetsCreatedAt(n));

    std::printf("\npackets injected per node (8x8 grid; %% of peak "
                "%llu):\n\n", static_cast<unsigned long long>(peak));
    for (std::int32_t y = topo.radix() - 1; y >= 0; --y) {
        std::printf("  y=%d |", y);
        for (std::int32_t x = 0; x < topo.radix(); ++x) {
            const auto count =
                net.packetsCreatedAt(topo.nodeId({x, y}));
            std::printf(" %5.1f",
                        100.0 * static_cast<double>(count) /
                            static_cast<double>(peak));
        }
        std::printf("\n");
    }

    // Imbalance statistics.
    RunningStat perNode;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        perNode.add(static_cast<double>(net.packetsCreatedAt(n)));

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
