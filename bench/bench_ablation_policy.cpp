/**
 * @file
 * Ablation bench for the design choices DESIGN.md calls out:
 *
 *  1. Congestion litmus: history policy vs the LU-only variant (no BU
 *     test) — the litmus is what lets the policy scale down *into*
 *     congestion instead of speeding up links feeding stalled buffers.
 *  2. EWMA weight W: responsiveness vs stability of the prediction.
 *  3. History window H: measurement granularity vs reaction lag.
 *  4. Routing: DOR vs minimal-adaptive under DVS.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "core/history_policy.hpp"

using namespace dvsnet;

namespace
{

/**
 * Build the history-policy spec with one tweak applied; sections batch
 * these into a single runPoints call so the variants run in parallel.
 */
network::ExperimentSpec
variantSpec(const bench::BenchOptions &opts,
            const std::function<void(network::ExperimentSpec &)> &tweak)
{
    network::ExperimentSpec spec = bench::paperSpec(opts);
    spec.network.policy = network::PolicyKind::History;
    tweak(spec);
    return spec;
}

} // namespace

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate_light", "rate_heavy"});
    bench::printHeader("Ablations",
                       "policy design choices (history-based DVS)", opts);

    const double light = bench::rateOption(opts, "rate_light", 0.8);
    const double heavy = bench::rateOption(opts, "rate_heavy", 2.6);

    // 1. Congestion litmus.
    std::printf("\n[1] congestion litmus (BU test) at heavy load "
                "(%.1f pkt/cycle):\n", heavy);
    Table t1({"policy", "latency", "throughput", "savings"});
    {
        const std::pair<const char *, network::PolicyKind> variants[] = {
            {"history (with litmus)", network::PolicyKind::History},
            {"LU-only (no litmus)", network::PolicyKind::LinkUtilOnly}};
        std::vector<network::ExperimentSpec> specs;
        for (const auto &[name, kind] : variants) {
            specs.push_back(variantSpec(opts, [kind = kind](auto &spec) {
                spec.network.policy = kind;
            }));
        }
        const auto res = bench::runPoints(opts, specs, {heavy, heavy});
        for (std::size_t i = 0; i < specs.size(); ++i) {
            t1.addRow({variants[i].first,
                       Table::num(res[i].avgLatencyCycles, 1),
                       Table::num(res[i].throughputPktsPerCycle, 3),
                       Table::num(res[i].savingsFactor, 2) + "x"});
        }
    }
    bench::printTable(t1, opts);

    // 2. EWMA weight sweep at light load.
    std::printf("\n[2] EWMA weight W at light load (%.1f pkt/cycle):\n",
                light);
    Table t2({"W", "latency", "savings", "transitions/channel"});
    {
        const double weights[] = {1.0, 3.0, 7.0, 15.0};
        std::vector<network::ExperimentSpec> specs;
        for (double w : weights) {
            specs.push_back(variantSpec(opts, [w](auto &spec) {
                spec.network.policyParams.weight = w;
            }));
        }
        const auto points = bench::runObservedPoints(
            opts, specs, std::vector<double>(specs.size(), light));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto &net = points[i].live->network();
            double transitions = 0.0;
            for (std::size_t c = 0; c < net.numChannels(); ++c)
                transitions += static_cast<double>(
                    net.channel(static_cast<ChannelId>(c)).transitions());
            transitions /= static_cast<double>(net.numChannels());
            const auto &res = points[i].results;
            t2.addRow({Table::num(weights[i], 0),
                       Table::num(res.avgLatencyCycles, 1),
                       Table::num(res.savingsFactor, 2) + "x",
                       Table::num(transitions, 1)});
        }
    }
    bench::printTable(t2, opts);

    // 3. History window sweep.
    std::printf("\n[3] history window H at light load:\n");
    Table t3({"H (cycles)", "latency", "savings"});
    {
        const Cycle windows[] = {50, 200, 800, 3200};
        std::vector<network::ExperimentSpec> specs;
        for (Cycle h : windows) {
            specs.push_back(variantSpec(opts, [h](auto &spec) {
                spec.network.policyWindow = h;
            }));
        }
        const auto res = bench::runPoints(
            opts, specs, std::vector<double>(specs.size(), light));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            t3.addRow({Table::num(static_cast<std::uint64_t>(windows[i])),
                       Table::num(res[i].avgLatencyCycles, 1),
                       Table::num(res[i].savingsFactor, 2) + "x"});
        }
    }
    bench::printTable(t3, opts);

    // 4. Routing under DVS.
    std::printf("\n[4] routing algorithm under DVS (%.1f pkt/cycle):\n",
                light);
    Table t4({"routing", "latency", "throughput", "savings"});
    {
        const std::pair<const char *, network::RoutingKind> variants[] = {
            {"dimension-order", network::RoutingKind::Dor},
            {"minimal-adaptive", network::RoutingKind::MinimalAdaptive}};
        std::vector<network::ExperimentSpec> specs;
        for (const auto &[name, kind] : variants) {
            specs.push_back(variantSpec(opts, [kind = kind](auto &spec) {
                spec.network.routing = kind;
            }));
        }
        const auto res = bench::runPoints(opts, specs, {light, light});
        for (std::size_t i = 0; i < specs.size(); ++i) {
            t4.addRow({variants[i].first,
                       Table::num(res[i].avgLatencyCycles, 1),
                       Table::num(res[i].throughputPktsPerCycle, 3),
                       Table::num(res[i].savingsFactor, 2) + "x"});
        }
    }
    bench::printTable(t4, opts);

    // 5. Post-transition cooldown (the paper's "DVS interval" remark)
    //    and the Section 4.4.2 dynamic-threshold extension.
    std::printf("\n[5] reaction-damping variants at light load:\n");
    Table t5({"variant", "latency", "throughput", "savings"});
    {
        const Cycle cooldowns[] = {0, 10, 50};
        std::vector<std::string> names;
        std::vector<network::ExperimentSpec> specs;
        for (Cycle cd : cooldowns) {
            names.push_back(
                "history, cooldown " +
                std::to_string(static_cast<unsigned long long>(cd)));
            specs.push_back(variantSpec(opts, [cd](auto &spec) {
                spec.network.policyCooldown = cd;
            }));
        }
        names.push_back("dynamic thresholds (4.4.2)");
        specs.push_back(variantSpec(opts, [](auto &spec) {
            spec.network.policy = network::PolicyKind::DynamicThreshold;
        }));
        const auto res = bench::runPoints(
            opts, specs, std::vector<double>(specs.size(), light));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            t5.addRow({names[i], Table::num(res[i].avgLatencyCycles, 1),
                       Table::num(res[i].throughputPktsPerCycle, 3),
                       Table::num(res[i].savingsFactor, 2) + "x"});
        }
    }
    bench::printTable(t5, opts);
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
