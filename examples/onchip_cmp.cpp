/**
 * @file
 * On-chip CMP interconnect scenario (cf. Dally & Towles, "Route packets,
 * not wires"): a 4x4 mesh connecting 16 tiles, driven by classic
 * synthetic patterns.  Shows how DVS links behave under spatially
 * regular traffic and how adaptive routing interacts with the policy.
 *
 * Run:  ./onchip_cmp [pattern=transpose] [rate=0.02] [cycles=120000]
 *
 * `pattern` is any pattern workload's name (traffic::patternName):
 * uniform, transpose, bit-complement, bit-reverse, shuffle, tornado or
 * neighbor.
 */

#include <algorithm>
#include <cstdio>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "common/table.hpp"
#include "exp/runner.hpp"
#include "network/sweep.hpp"
#include "traffic/pattern.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const Spec args = Spec::fromArgs(argc, argv);
    args.rejectUnknownKeys({"pattern", "rate", "cycles", "warmup"});
    const std::string pattern = args.text("pattern", "transpose");
    std::vector<std::string> patterns;
    for (const traffic::Pattern p : traffic::kAllPatterns)
        patterns.push_back(traffic::patternName(p));
    if (std::find(patterns.begin(), patterns.end(), pattern) ==
        patterns.end()) {
        args.reject("pattern", "must be a traffic pattern (" +
                                   detail::joinList(patterns) + ")");
    }
    const double rate =  // per node: one packet a cycle at most
        args.number("rate", 0.02, network::kMinInjectionRate, 1.0);
    // The measurement window: a window of no cycles measures nothing.
    const Cycle cycles = args.countEnv("cycles", 120000, 1);
    const Cycle warmup = args.countEnv("warmup", 120000);

    std::printf("on-chip CMP scenario: 4x4 mesh, %s traffic, "
                "%.3f pkt/node/cycle\n\n",
                pattern.c_str(), rate);

    Table t({"configuration", "latency (cycles)", "throughput (pkt/cyc)",
             "power (W)", "savings"});

    struct Case
    {
        const char *name;
        network::PolicyKind policy;
        network::RoutingKind routing;
    };
    const Case cases[] = {
        {"DOR, no DVS", network::PolicyKind::None,
         network::RoutingKind::Dor},
        {"DOR, history DVS", network::PolicyKind::History,
         network::RoutingKind::Dor},
        {"adaptive, no DVS", network::PolicyKind::None,
         network::RoutingKind::MinimalAdaptive},
        {"adaptive, history DVS", network::PolicyKind::History,
         network::RoutingKind::MinimalAdaptive},
    };

    // One batch: the four cases run in parallel and share one
    // recording of the pattern's packets.
    exp::ExperimentRunner runner;
    for (const auto &c : cases) {
        exp::PointJob job;
        job.spec.network.radix = 4;
        job.spec.network.dims = 2;
        job.spec.network.policy = c.policy;
        job.spec.network.routing = c.routing;
        job.spec.workloadSpec = pattern;
        job.spec.warmup = warmup;
        job.spec.measure = cycles;
        // A pattern workload spreads the network's rate evenly over the
        // nodes, so `rate` per node is `rate` x 16 for the network.
        job.injectionRate = rate * 16;
        job.seed = 7;
        runner.submit(std::move(job));
    }
    const auto results = runner.collect();
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
            DVSNET_FATAL("case '", cases[i].name,
                         "' failed: ", results[i].error);
        }
        const auto &res = results[i].results;
        t.addRow({cases[i].name, network::latencyCell(res),
                  Table::num(res.throughputPktsPerCycle, 4),
                  Table::num(res.avgPowerW, 1),
                  Table::num(res.savingsFactor, 2) + "x"});
    }
    std::fputs(t.toText().c_str(), stdout);

    std::printf("\nNotes: adaptive routing spreads permutation traffic "
                "across minimal paths,\nwhich both lowers baseline "
                "latency under adversarial patterns and gives the\nDVS "
                "policy more uniformly-utilized links to scale.\n");
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
