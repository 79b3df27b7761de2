/**
 * @file
 * Policy explorer: compares every DVS policy the library ships — no-DVS,
 * the paper's history-based policy at several threshold settings, the
 * LU-only ablation, dynamic thresholds, and static pinned levels — at
 * one operating point, so the power/performance trade-off space is
 * visible in a single table.
 *
 * Also the canonical ExperimentRunner example: every variant is
 * submitted as one PointJob and the worker pool runs them concurrently;
 * results come back in submission order, and a variant with a nonsense
 * config shows up as an error row instead of killing the run.
 *
 * Run:  ./policy_explorer [rate=1.2] [tasks=100] [cycles=120000]
 *                         [--threads N] [--seed S]
 */

#include <cstdio>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "common/table.hpp"
#include "core/history_policy.hpp"
#include "exp/runner.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const Spec args = Spec::fromArgs(argc, argv);
    args.rejectUnknownKeys(
        {"rate", "tasks", "cycles", "warmup", "threads", "seed"});
    const double rate =
        args.number("rate", 1.2, network::kMinInjectionRate,
                    network::maxInjectionRate(network::NetworkConfig{}));
    // The measurement window: a window of no cycles measures nothing.
    const Cycle cycles = args.countEnv("cycles", 120000, 1);
    const Cycle warmup = args.countEnv("warmup", 120000);
    const std::size_t threads =
        args.countEnv("threads", 0, 0, exp::kMaxThreads);
    const std::uint64_t seed = args.countEnv("seed", 99);

    std::printf("policy explorer: 8x8 mesh, two-level workload at "
                "%.2f pkt/cycle (seed=%llu, threads=%zu)\n\n",
                rate, static_cast<unsigned long long>(seed),
                exp::resolveThreadCount(threads));

    network::ExperimentSpec spec;
    spec.workload.avgConcurrentTasks = args.integer("tasks", 100);
    spec.workload.seed = seed;
    spec.warmup = warmup;
    spec.measure = cycles;

    // Submit every policy variant as one job on a shared worker pool.
    exp::RunnerOptions runnerOpts;
    runnerOpts.threads = threads;
    exp::ExperimentRunner runner(runnerOpts);
    auto submit = [&](const std::string &name,
                      const network::ExperimentSpec &variant) {
        exp::PointJob job;
        job.spec = variant;
        job.injectionRate = rate;
        job.seed = variant.workload.seed;
        job.label = name;
        runner.submit(std::move(job));
    };

    {
        auto v = spec;
        v.network.policy = network::PolicyKind::None;
        submit("no DVS", v);
    }
    {
        const char *names[] = {"history I (gentle)", "history III (paper)",
                               "history VI (aggressive)"};
        const int settings[] = {0, 2, 5};
        for (int i = 0; i < 3; ++i) {
            auto v = spec;
            v.network.policy = network::PolicyKind::History;
            v.network.policyParams =
                core::HistoryDvsParams::thresholdSetting(settings[i]);
            submit(names[i], v);
        }
    }
    {
        auto v = spec;
        v.network.policy = network::PolicyKind::LinkUtilOnly;
        submit("LU-only (no litmus)", v);
    }
    {
        auto v = spec;
        v.network.policy = network::PolicyKind::DynamicThreshold;
        submit("dynamic thresholds (4.4.2)", v);
    }
    for (std::size_t level : {std::size_t{3}, std::size_t{6}}) {
        auto v = spec;
        v.network.policy = network::PolicyKind::StaticLevel;
        v.network.staticLevel = level;
        submit("static level " + std::to_string(level), v);
    }

    Table t({"policy", "latency", "throughput", "norm power", "savings",
             "avg level"});
    for (const auto &r : runner.collect()) {
        if (!r.ok) {
            t.addRow({r.label, "error: " + r.error, "-", "-", "-", "-"});
            continue;
        }
        const auto &res = r.results;
        t.addRow({r.label, network::latencyCell(res),
                  Table::num(res.throughputPktsPerCycle, 3),
                  Table::num(res.normalizedPower, 3),
                  Table::num(res.savingsFactor, 2) + "x",
                  Table::num(res.avgChannelLevel, 2)});
    }

    std::fputs(t.toText().c_str(), stdout);
    std::printf("\nReading the table: the history policy's settings "
                "trace a latency/power\nfrontier; static levels show "
                "what a non-adaptive ladder costs; the LU-only\nvariant "
                "shows what the congestion litmus buys at high load.\n");
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
