/**
 * @file
 * Perf baseline for the simulator's hot paths: a timed pass over the
 * event queue (events/sec, ns/event) and whole-network simulation
 * throughput (cycles/sec, events/sec, flits/sec) at several operating
 * points.
 *
 * `--json <path>` writes the pass as a `dvsnet-bench-v1` artifact — the
 * committed BENCH_micro.json perf baseline is produced this way.
 * `--quick` shrinks the pass (CI smoke mode).  `--net-filter
 * <substring>` restricts the whole-network points to names containing
 * the substring (the event-queue passes always run).  Any other key is
 * fatal.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/fatal.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exp/worker_pool.hpp"
#include "network/network.hpp"
#include "sim/event_queue.hpp"
#include "traffic/pattern_traffic.hpp"
#include "workload/factory.hpp"

using namespace dvsnet;

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/** One timed repetition: its wall clock and what it ran. */
struct Rep
{
    double secs = 0.0;
    std::uint64_t events = 0;
    network::RunResults results;  ///< whole-network passes only
};

/**
 * The fastest of three repetitions of `run`, which times its own
 * region and runs the identical seeded work each time.  The passes are
 * short enough that scheduler preemption on a shared machine dominates
 * single-run variance, so the fastest repetition is the
 * least-perturbed estimate of the code's cost.
 */
template <typename Run>
Rep
fastestOf3(Run run)
{
    Rep best = run();
    for (int rep = 1; rep < 3; ++rep) {
        Rep next = run();
        if (next.secs < best.secs)
            best = std::move(next);
    }
    return best;
}

/** A `micro` result entry for an event-queue pass. */
Json
eventQueueJson(const char *name, const Rep &rep)
{
    Json j = Json::object();
    j["type"] = Json("micro");
    j["name"] = Json(name);
    j["events"] = Json(rep.events);
    j["wall_seconds"] = Json(rep.secs);
    j["events_per_sec"] = Json(static_cast<double>(rep.events) / rep.secs);
    j["ns_per_event"] =
        Json(rep.secs * 1e9 / static_cast<double>(rep.events));
    return j;
}

/**
 * Steady-state schedule+execute at depth 1024 on the one event queue:
 * the cost of every event the simulator dispatches.
 */
Json
measureEventQueue(std::uint64_t events)
{
    const Rep best = fastestOf3([events] {
        sim::EventQueue q;
        Tick t = 0;
        for (std::size_t i = 0; i < 1024; ++i)
            q.schedule(++t, [] {});
        const auto start = SteadyClock::now();
        for (std::uint64_t i = 0; i < events; ++i) {
            q.schedule(++t, [] {});
            q.executeNext();
        }
        return Rep{secondsSince(start), events, {}};
    });
    return eventQueueJson("event_queue_schedule_execute", best);
}

/**
 * The event queue at the traffic generator's depth: 12,800 pending
 * events, one per ON/OFF source of the paper's two-level workload
 * (100 tasks x 128 sources), with exponential gaps of mean 450k ticks;
 * each executed event schedules its successor.  The gaps are drawn
 * before the clock starts, so the pass times the queue, not the RNG.
 */
Json
measureEventQueueOnOff(std::uint64_t events, std::uint64_t seed)
{
    constexpr std::size_t kDepth = 12800;
    constexpr std::size_t kGaps = std::size_t{1} << 16;
    Rng rng(seed);
    std::vector<Tick> gaps(kGaps);
    for (Tick &gap : gaps)
        gap = 1 + static_cast<Tick>(rng.exponential(4.5e5));

    const Rep best = fastestOf3([&] {
        sim::EventQueue q;
        for (std::size_t i = 0; i < kDepth; ++i)
            q.schedule(gaps[i], [] {});
        const auto start = SteadyClock::now();
        for (std::uint64_t i = 0; i < events; ++i) {
            const Tick now = q.executeNext();
            q.schedule(now + gaps[(i + kDepth) % kGaps], [] {});
        }
        return Rep{secondsSince(start), events, {}};
    });
    return eventQueueJson("event_queue_onoff_depth", best);
}

/** One whole-network operating point. */
struct NetPoint
{
    const char *name;
    std::int32_t radix;
    std::int32_t numVcs;
    double rate;
    const char *linkPower = "table";
    const char *workload = "uniform";
};

/**
 * Whole-network pass: radix x radix mesh, history-DVS policy, the
 * point's traffic.  Reports simulated cycles/sec, kernel events/sec
 * and delivered flits/sec — the end-to-end throughput figures tracked
 * by the committed baseline.
 */
Json
measureNetwork(const NetPoint &pt, Cycle warmup, Cycle measure,
               std::uint64_t seed)
{
    const Rep best = fastestOf3([&] {
        network::NetworkConfig cfg;
        cfg.radix = pt.radix;
        cfg.router.numVcs = pt.numVcs;
        cfg.policy = network::PolicyKind::History;
        cfg.linkPowerSpec = pt.linkPower;
        network::Network net(cfg);
        // "uniform" keeps the historical direct PatternTraffic path
        // (rate is per node); anything else goes through the workload
        // factory, whose context rate is network-wide packets/cycle.
        traffic::PatternTraffic traffic(net.topology(),
                                        traffic::Pattern::UniformRandom,
                                        pt.rate, seed);
        std::unique_ptr<traffic::TrafficGenerator> generator;
        if (std::string(pt.workload) == "uniform") {
            net.attachTraffic(traffic);
        } else {
            workload::WorkloadContext context{net.topology(), pt.rate,
                                              seed, {}};
            generator = workload::buildWorkload(pt.workload, context);
            net.attachTraffic(*generator);
        }

        const auto start = SteadyClock::now();
        const std::uint64_t ev0 = net.kernel().executedEvents();
        Rep rep;
        rep.results = net.run(warmup, measure);
        rep.events = net.kernel().executedEvents() - ev0;
        rep.secs = secondsSince(start);
        return rep;
    });
    const double cycles = static_cast<double>(warmup + measure);
    const double secs = best.secs;

    Json j = Json::object();
    j["type"] = Json("micro");
    j["name"] = Json(pt.name);
    j["radix"] = Json(static_cast<std::int64_t>(pt.radix));
    j["num_vcs"] = Json(static_cast<std::int64_t>(pt.numVcs));
    j["rate_pkts_per_node_cycle"] = Json(pt.rate);
    j["link_power"] = Json(pt.linkPower);
    j["workload"] = Json(pt.workload);
    j["cycles"] = Json(static_cast<std::uint64_t>(warmup + measure));
    j["events"] = Json(best.events);
    j["flits_ejected"] = Json(best.results.flitsEjected);
    j["wall_seconds"] = Json(secs);
    j["cycles_per_sec"] = Json(cycles / secs);
    j["events_per_sec"] = Json(static_cast<double>(best.events) / secs);
    j["flits_per_sec"] =
        Json(static_cast<double>(best.results.flitsEjected) / secs);
    j["ns_per_event"] =
        Json(secs * 1e9 / static_cast<double>(best.events));
    j["invariant_checks"] = Json(best.results.invariantChecks);
    j["invariant_failures"] = Json(best.results.invariantFailures);
    return j;
}

/**
 * The whole-network points: the historical 0.01 pkts/node/cycle one, a
 * paper-typical low-load point where activity gating pays off most, a
 * near-saturation point that exercises the fused router pass and
 * link-delivery batching with everything awake, and a 16x16 loaded
 * point, plus the points below that each guard one more path.
 */
constexpr NetPoint kNetPoints[] = {
    {"network_8x8_history_uniform", 8, 2, 0.01},
    // 0.02 = 0.1 flits/node/cycle
    {"network_8x8_history_lowload", 8, 2, 0.02},
    // Near saturation: every router steps nearly every cycle, so this
    // point is dominated by the fused drain/SA pass and link batching
    // rather than by idle-skipping.
    {"network_8x8_history_saturated", 8, 2, 0.07},
    {"network_16x16_history_loaded", 16, 2, 0.05},
    // Wide-geometry points: dense input-VC spaces past the 64-bit
    // single-word boundary (5 ports x 16 VCs = 80 and 5 x 13 = 65),
    // exercising the multi-word InputVcSet scans end to end
    // (EXPERIMENTS.md, "Wide-geometry fast path").
    {"network_8x8_history_wide16vc", 8, 16, 0.05},
    {"network_16x16_history_wide13vc", 16, 13, 0.05},
    // Toggle link-power backend: the per-flit toggle/coupling energy
    // path rides the channel-send hot loop, so this point keeps the
    // per-flit charge from silently regressing it (compare against
    // network_8x8_history_saturated).
    {"network_8x8_history_saturated_toggle", 8, 2, 0.07, "toggle"},
    // The paper's Sec. 4.3 two-level task workload (exponential task
    // arrivals driving banks of ON/OFF sources) through the workload
    // factory: the generator's per-cycle bookkeeping is on the hot path
    // for every figure bench, so the baseline guards it alongside the
    // synthetic-pattern points.  Rate is network-wide packets/cycle for
    // factory workloads.
    {"network_8x8_history_twolevel", 8, 2, 1.2, "table", "two-level"},
};

#ifndef DVSNET_GIT_DESCRIBE
#define DVSNET_GIT_DESCRIBE "unknown"
#endif

/** Write the timed pass's `dvsnet-bench-v1` artifact to `path`. */
void
writeArtifact(const std::string &path, const bench::BenchOptions &opts,
              const std::string &netFilter, Json results,
              SteadyClock::time_point processStart)
{
    Json root = Json::object();
    root["schema"] = Json("dvsnet-bench-v1");
    root["binary"] = Json("bench_micro");
    root["figure"] = Json("micro");
    root["description"] =
        Json("hot-path perf baseline: event queue + whole-network "
             "simulation throughput");
    root["git_describe"] = Json(DVSNET_GIT_DESCRIBE);
    root["seed"] = Json(std::to_string(opts.seed));
    root["threads"] = Json(static_cast<std::uint64_t>(
        exp::resolveThreadCount(opts.threads)));
    root["quick"] = Json(opts.quick);
    Json cfg = Json::object();
    cfg["seed"] = Json(std::to_string(opts.seed));
    cfg["threads"] = Json(std::to_string(opts.threads));
    cfg["quick"] = Json(opts.quick ? "1" : "0");
    // Echoed only when set: the committed baseline and the plain smoke
    // artifact must stay structurally identical (--schema diff).
    if (!netFilter.empty())
        cfg["net_filter"] = Json(netFilter);
    root["config"] = std::move(cfg);
    root["wall_seconds"] = Json(secondsSince(processStart));
    root["results"] = std::move(results);

    std::ofstream out(path);
    if (!out)
        DVSNET_FATAL("cannot open JSON artifact path '", path, "'");
    out << root.dump(2) << "\n";
    out.flush();
    if (!out)
        DVSNET_FATAL("failed writing JSON artifact '", path, "'");
    std::fprintf(stderr, "wrote JSON artifact: %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
try {
    const auto processStart = SteadyClock::now();
    const auto opts = bench::parseOptions(argc, argv);
    opts.raw.rejectUnknownKeys(
        {"quick", "seed", "threads", "json", "net-filter"});
    const std::string netFilter = opts.raw.text("net-filter", "");

    // The timing loops run serially; --threads is accepted for
    // command-line uniformity and echoed for the record.
    std::printf("== micro-benchmarks == (seed=%llu, threads=%zu "
                "[resolved %zu; timing loops run serially])\n",
                static_cast<unsigned long long>(opts.seed), opts.threads,
                exp::resolveThreadCount(opts.threads));
    std::printf("timed pass (%s fidelity):\n",
                opts.quick ? "quick" : "full");

    Json results = Json::array();
    // Quick mode keeps 1M events: shorter passes are cheap but so noisy
    // under machine contention that the CI perf guard false-fires.
    const std::uint64_t eqEvents = opts.quick ? 1000000 : 2000000;
    for (Json eq : {measureEventQueue(eqEvents),
                    measureEventQueueOnOff(eqEvents, opts.seed)}) {
        std::printf("  %s: %.3g events/sec (%.1f ns/event)\n",
                    eq.find("name")->asString().c_str(),
                    eq.find("events_per_sec")->asDouble(),
                    eq.find("ns_per_event")->asDouble());
        results.push(std::move(eq));
    }

    const Cycle nwWarmup = opts.quick ? 500 : 2000;
    const Cycle nwMeasure = opts.quick ? 2000 : 20000;
    for (const NetPoint &pt : kNetPoints) {
        if (std::string(pt.name).find(netFilter) == std::string::npos)
            continue;
        Json nw = measureNetwork(pt, nwWarmup, nwMeasure, opts.seed);
        std::printf("  %s: %.3g cycles/sec, %.3g events/sec, "
                    "%.3g flits/sec\n",
                    pt.name, nw.find("cycles_per_sec")->asDouble(),
                    nw.find("events_per_sec")->asDouble(),
                    nw.find("flits_per_sec")->asDouble());
        results.push(std::move(nw));
    }

    if (!opts.jsonPath.empty()) {
        writeArtifact(opts.jsonPath, opts, netFilter, std::move(results),
                      processStart);
    }
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
