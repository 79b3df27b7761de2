/**
 * @file
 * Quickstart: build the paper's 8x8 mesh with DVS links, drive it with
 * the two-level self-similar workload, and compare the history-based DVS
 * policy against the non-DVS baseline at one operating point.
 *
 * Run:  ./quickstart [rate=1.0] [cycles=100000] [--seed S]
 */

#include <cstdio>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "exp/runner.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "traffic/task_model.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const Spec args = Spec::fromArgs(argc, argv);
    args.rejectUnknownKeys({"rate", "cycles", "seed"});
    const double rate =
        args.number("rate", 1.0, network::kMinInjectionRate,
                    network::maxInjectionRate(network::NetworkConfig{}));
    // The measurement window: a window of no cycles measures nothing.
    const Cycle cycles = args.countEnv("cycles", 100000, 1);
    const std::uint64_t seed = args.countEnv("seed", 42);

    std::printf("dvsnet quickstart: 8x8 mesh, two-level workload, "
                "rate=%.2f pkt/cycle, %llu cycles, seed=%llu\n\n",
                rate, static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(seed));

    for (bool dvs : {false, true}) {
        network::ExperimentSpec spec;
        spec.network.policy = dvs ? network::PolicyKind::History
                                  : network::PolicyKind::None;
        spec.workload.seed = seed;
        spec.warmup = 20000;
        spec.measure = cycles;

        const network::RunResults res = exp::runPoint(spec, rate, seed);

        std::printf("%s:\n", dvs ? "history-based DVS" : "no DVS (baseline)");
        std::printf("  avg latency    : %8s cycles\n",
                    network::latencyCell(res).c_str());
        std::printf("  throughput     : %8.3f packets/cycle\n",
                    res.throughputPktsPerCycle);
        std::printf("  network power  : %8.1f W (normalized %.3f)\n",
                    res.avgPowerW, res.normalizedPower);
        std::printf("  power savings  : %8.2fx\n", res.savingsFactor);
        std::printf("  delivered      : %8llu of %llu created in the "
                    "window\n\n",
                    static_cast<unsigned long long>(res.packetsDelivered),
                    static_cast<unsigned long long>(res.packetsCreated));
    }
    std::printf("throughput counts every packet ejected in the window, "
                "whenever it was created;\ndelivered counts the packets "
                "created in the window that reached their\ndestination "
                "by its end (avg latency is theirs).\n");
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
