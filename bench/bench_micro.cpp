/**
 * @file
 * Micro-benchmarks (google-benchmark) for the simulator's hot paths:
 * event queue, RNG, arbiters/allocators, router cycle step, DVS policy
 * evaluation, and whole-network simulation throughput.
 *
 * Besides the google-benchmark suite, `--json <path>` runs a dedicated
 * timed pass (event-queue events/sec + whole-network flits/sec) and
 * writes a `dvsnet-bench-v1` artifact — the committed BENCH_micro.json
 * perf baseline is produced this way.  `--quick` shrinks the timed pass
 * and skips the google-benchmark suite entirely (CI smoke mode).
 * `--net-filter <substring>` restricts the whole-network timed points
 * to names containing the substring (the event-queue passes always run).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/fatal.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exp/worker_pool.hpp"
#include "core/history_policy.hpp"
#include "network/network.hpp"
#include "router/allocator.hpp"
#include "router/router.hpp"
#include "router/routing.hpp"
#include "sim/event_queue.hpp"
#include "topo/topology.hpp"
#include "traffic/pattern_traffic.hpp"
#include "workload/factory.hpp"

using namespace dvsnet;

namespace
{

/** Base seed for the RNG micro-benchmarks (--seed S overrides). */
std::uint64_t g_seed = 12345;

/** Substring filter for the whole-network timed points
 *  (`--net-filter <substring>`; empty = run all). */
std::string g_netFilter;

void
BM_EventQueueScheduleExecute(benchmark::State &state)
{
    sim::EventQueue q;
    const auto depth = static_cast<std::size_t>(state.range(0));
    Tick t = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(++t, [] {});
    for (auto _ : state) {
        q.schedule(++t, [] {});
        q.executeNext();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleExecute)->Arg(16)->Arg(1024)->Arg(16384);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(g_seed);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngPareto(benchmark::State &state)
{
    Rng rng(g_seed + 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.pareto(100.0, 1.4));
}
BENCHMARK(BM_RngPareto);

void
BM_RoundRobinArbiter(benchmark::State &state)
{
    // Eight requesters in one word, all bidding: the call the switch
    // allocator's input stage makes.
    router::RoundRobinArbiter arb(8);
    std::uint64_t reqs = 0xFF;
    benchmark::DoNotOptimize(reqs);
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.arbitrateMask(reqs));
}
BENCHMARK(BM_RoundRobinArbiter);

void
BM_SwitchAllocator(benchmark::State &state)
{
    // A 5-port, 2-VC router with every input port bidding:
    // (in, vc) -> out = (0,0)->1, (1,1)->2, (2,0)->1, (3,1)->4, (4,0)->0.
    const std::int32_t numVcs = 2;
    router::SeparableSwitchAllocator sa(5, numVcs);
    const std::vector<std::uint32_t> vcReqMasks{0b01, 0b10, 0b01, 0b10,
                                                0b01};
    std::vector<PortId> outPorts(10, kInvalidId);
    outPorts[0 * numVcs + 0] = 1;
    outPorts[1 * numVcs + 1] = 2;
    outPorts[2 * numVcs + 0] = 1;
    outPorts[3 * numVcs + 1] = 4;
    outPorts[4 * numVcs + 0] = 0;
    router::PortSet reqPorts;
    for (PortId p = 0; p < 5; ++p)
        reqPorts.set(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(sa.allocate(vcReqMasks, outPorts, reqPorts));
}
BENCHMARK(BM_SwitchAllocator);

void
BM_DorRoute(benchmark::State &state)
{
    const topo::KAryNCube mesh(8, 2, false);
    const router::DorRouting dor(mesh, 2);
    std::vector<router::RouteCandidate> cands;
    NodeId dst = 0;
    for (auto _ : state) {
        dor.route(0, mesh.terminalPort(), 0, 1 + (dst++ % 62), cands);
        benchmark::DoNotOptimize(cands);
    }
}
BENCHMARK(BM_DorRoute);

void
BM_HistoryPolicyDecide(benchmark::State &state)
{
    core::HistoryDvsPolicy policy;
    core::PolicyInput input;
    input.level = 5;
    input.numLevels = 10;
    double x = 0.0;
    for (auto _ : state) {
        input.linkUtil = 0.5 + 0.4 * __builtin_sin(x += 0.1);
        input.bufferUtil = 0.3;
        benchmark::DoNotOptimize(policy.decide(input));
    }
}
BENCHMARK(BM_HistoryPolicyDecide);

void
BM_IdleRouterStep(benchmark::State &state)
{
    const topo::KAryNCube mesh(8, 2, false);
    const router::DorRouting dor(mesh, 2);
    router::RouterConfig cfg;
    const router::PacketTable packets;
    router::Router r(0, cfg, dor, packets);
    Tick now = 0;
    for (auto _ : state)
        r.step(now += kRouterClockPeriod);
}
BENCHMARK(BM_IdleRouterStep);

/** Whole-network simulation throughput: cycles simulated per second.
 *  Arg: mesh radix. */
void
BM_NetworkCyclesPerSecond(benchmark::State &state)
{
    network::NetworkConfig cfg;
    cfg.radix = static_cast<std::int32_t>(state.range(0));
    cfg.policy = network::PolicyKind::History;
    network::Network net(cfg);
    traffic::PatternTraffic traffic(net.topology(),
                                    traffic::Pattern::UniformRandom,
                                    0.01, 3);
    net.attachTraffic(traffic);
    Cycle horizon = 1000;  // warm the structures
    net.runUntilCycle(horizon);
    for (auto _ : state) {
        horizon += 1000;
        net.runUntilCycle(horizon);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
    state.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_NetworkCyclesPerSecond)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** A `micro` result entry for an event-queue pass. */
Json
eventQueueJson(const char *name, std::uint64_t events, double secs)
{
    Json j = Json::object();
    j["type"] = Json("micro");
    j["name"] = Json(name);
    j["events"] = Json(events);
    j["wall_seconds"] = Json(secs);
    j["events_per_sec"] = Json(static_cast<double>(events) / secs);
    j["ns_per_event"] = Json(secs * 1e9 / static_cast<double>(events));
    return j;
}

/**
 * Timed event-queue pass: steady-state schedule+execute at depth 1024
 * on the one event queue.  Reports events/sec and ns/event — the cost of
 * every event the simulator dispatches.  Best-of-3: the pass is short
 * enough that scheduler preemption on a shared machine dominates
 * single-run variance; the fastest repetition is the least-perturbed
 * estimate of the code's actual cost.
 */
Json
measureEventQueue(std::uint64_t events)
{
    double secs = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue q;
        Tick t = 0;
        for (std::size_t i = 0; i < 1024; ++i)
            q.schedule(++t, [] {});
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < events; ++i) {
            q.schedule(++t, [] {});
            q.executeNext();
        }
        const double repSecs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep == 0 || repSecs < secs)
            secs = repSecs;
    }
    return eventQueueJson("event_queue_schedule_execute", events, secs);
}

/**
 * Timed event-queue pass at the traffic generator's depth: 12,800
 * pending events, one per ON/OFF source of the paper's two-level
 * workload (100 tasks x 128 sources), with exponential gaps of mean
 * 450k ticks; each executed event schedules its successor.  The gaps
 * are drawn before the clock starts, so the pass times the queue, not
 * the RNG.  Best-of-3 like the depth-1024 pass.
 */
Json
measureEventQueueOnOff(std::uint64_t events)
{
    constexpr std::size_t kDepth = 12800;
    constexpr std::size_t kGaps = std::size_t{1} << 16;
    Rng rng(g_seed);
    std::vector<Tick> gaps(kGaps);
    for (Tick &gap : gaps)
        gap = 1 + static_cast<Tick>(rng.exponential(4.5e5));

    double secs = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        sim::EventQueue q;
        for (std::size_t i = 0; i < kDepth; ++i)
            q.schedule(gaps[i], [] {});
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < events; ++i) {
            const Tick now = q.executeNext();
            q.schedule(now + gaps[(i + kDepth) % kGaps], [] {});
        }
        const double repSecs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep == 0 || repSecs < secs)
            secs = repSecs;
    }
    return eventQueueJson("event_queue_onoff_depth", events, secs);
}

/**
 * Timed whole-network pass: radix x radix mesh, history-DVS policy,
 * uniform traffic at `rate` packets/node/cycle.  Reports
 * simulated cycles/sec, kernel events/sec and delivered flits/sec —
 * the end-to-end throughput figures tracked by the committed baseline.
 * Run at several operating points: the historical 0.01
 * pkts/node/cycle one, a paper-typical low-load point (0.02
 * pkts/node/cycle = 0.1 flits/node/cycle with 5-flit packets) where
 * activity gating pays off most, a near-saturation point (0.07) that
 * exercises the fused router pass and link-delivery batching with
 * everything awake, and a 16x16 loaded point.  Best-of-3 like the
 * event-queue pass: every repetition simulates the identical seeded
 * run, so the fastest wall clock is the least-perturbed one.
 */
Json
measureNetwork(const char *name, std::int32_t radix,
               std::int32_t numVcs, double rate, Cycle warmup,
               Cycle measure,
               const char *linkPower = "table",
               const char *workloadSpec = "uniform")
{
    double secs = 0.0;
    std::uint64_t events = 0;
    network::RunResults res;
    for (int rep = 0; rep < 3; ++rep) {
        network::NetworkConfig cfg;
        cfg.radix = radix;
        cfg.router.numVcs = numVcs;
        cfg.policy = network::PolicyKind::History;
        cfg.linkPowerSpec = linkPower;
        network::Network net(cfg);
        // "uniform" keeps the historical direct PatternTraffic path
        // (rate is per node); anything else goes through the workload
        // factory, whose context rate is network-wide packets/cycle.
        traffic::PatternTraffic traffic(
            net.topology(), traffic::Pattern::UniformRandom, rate,
            static_cast<std::uint64_t>(g_seed));
        std::unique_ptr<traffic::TrafficGenerator> generator;
        if (std::strcmp(workloadSpec, "uniform") == 0) {
            net.attachTraffic(traffic);
        } else {
            workload::WorkloadContext context{net.topology(), rate,
                                              g_seed, {}};
            generator = workload::buildWorkload(workloadSpec, context);
            net.attachTraffic(*generator);
        }

        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t ev0 = net.kernel().executedEvents();
        const auto repRes = net.run(warmup, measure);
        const std::uint64_t repEvents =
            net.kernel().executedEvents() - ev0;
        const double repSecs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep == 0 || repSecs < secs) {
            secs = repSecs;
            events = repEvents;
            res = repRes;
        }
    }
    const double cycles = static_cast<double>(warmup + measure);

    Json j = Json::object();
    j["type"] = Json("micro");
    j["name"] = Json(name);
    j["radix"] = Json(static_cast<std::int64_t>(radix));
    j["num_vcs"] = Json(static_cast<std::int64_t>(numVcs));
    j["rate_pkts_per_node_cycle"] = Json(rate);
    j["link_power"] = Json(linkPower);
    j["workload"] = Json(workloadSpec);
    j["cycles"] = Json(static_cast<std::uint64_t>(warmup + measure));
    j["events"] = Json(events);
    j["flits_ejected"] = Json(res.flitsEjected);
    j["wall_seconds"] = Json(secs);
    j["cycles_per_sec"] = Json(cycles / secs);
    j["events_per_sec"] = Json(static_cast<double>(events) / secs);
    j["flits_per_sec"] =
        Json(static_cast<double>(res.flitsEjected) / secs);
    j["ns_per_event"] = Json(secs * 1e9 / static_cast<double>(events));
    j["invariant_checks"] = Json(res.invariantChecks);
    j["invariant_failures"] = Json(res.invariantFailures);
    return j;
}

#ifndef DVSNET_GIT_DESCRIBE
#define DVSNET_GIT_DESCRIBE "unknown"
#endif

/** Run the timed pass and write the `dvsnet-bench-v1` artifact. */
void
writeArtifact(const std::string &path, std::uint64_t seed,
              std::size_t threads, bool quick,
              const std::chrono::steady_clock::time_point &processStart)
{
    Json root = Json::object();
    root["schema"] = Json("dvsnet-bench-v1");
    root["binary"] = Json("bench_micro");
    root["figure"] = Json("micro");
    root["description"] =
        Json("hot-path perf baseline: event queue + whole-network "
             "simulation throughput");
    root["git_describe"] = Json(DVSNET_GIT_DESCRIBE);
    root["seed"] = Json(std::to_string(seed));
    root["threads"] = Json(static_cast<std::uint64_t>(
        dvsnet::exp::resolveThreadCount(threads)));
    root["quick"] = Json(quick);
    Json cfg = Json::object();
    cfg["seed"] = Json(std::to_string(seed));
    cfg["threads"] = Json(std::to_string(threads));
    cfg["quick"] = Json(quick ? "1" : "0");
    // Echoed only when set: the committed baseline and the plain smoke
    // artifact must stay structurally identical (--schema diff).
    if (!g_netFilter.empty())
        cfg["net_filter"] = Json(g_netFilter);
    root["config"] = std::move(cfg);

    std::printf("timed pass (%s fidelity):\n", quick ? "quick" : "full");
    Json results = Json::array();
    // Quick mode keeps 1M events: shorter passes are cheap but so noisy
    // under machine contention that the CI perf guard false-fires.
    const std::uint64_t eqEvents = quick ? 1000000 : 2000000;
    for (Json eq : {measureEventQueue(eqEvents),
                    measureEventQueueOnOff(eqEvents)}) {
        std::printf("  %s: %.3g events/sec (%.1f ns/event)\n",
                    eq.find("name")->asString().c_str(),
                    eq.find("events_per_sec")->asDouble(),
                    eq.find("ns_per_event")->asDouble());
        results.push(std::move(eq));
    }

    const Cycle nwWarmup = quick ? 500 : 2000;
    const Cycle nwMeasure = quick ? 2000 : 20000;
    struct NetPoint
    {
        const char *name;
        std::int32_t radix;
        std::int32_t numVcs;
        double rate;
        const char *linkPower = "table";
        const char *workload = "uniform";
    };
    constexpr NetPoint kNetPoints[] = {
        {"network_8x8_history_uniform", 8, 2, 0.01},
        // 0.02 = 0.1 flits/node/cycle
        {"network_8x8_history_lowload", 8, 2, 0.02},
        // Near saturation: every router steps nearly every cycle, so
        // this point is dominated by the fused drain/SA pass and link
        // batching rather than by idle-skipping.
        {"network_8x8_history_saturated", 8, 2, 0.07},
        {"network_16x16_history_loaded", 16, 2, 0.05},
        // Wide-geometry points: dense input-VC spaces past the 64-bit
        // single-word boundary (5 ports x 16 VCs = 80 and 5 x 13 = 65),
        // exercising the multi-word InputVcSet scans end to end
        // (EXPERIMENTS.md, "Wide-geometry fast path").
        {"network_8x8_history_wide16vc", 8, 16, 0.05},
        {"network_16x16_history_wide13vc", 16, 13, 0.05},
        // Toggle link-power backend: the per-flit toggle/coupling
        // energy path rides the channel-send hot loop, so this point
        // keeps the per-flit charge from silently regressing it
        // (compare against network_8x8_history_saturated).
        {"network_8x8_history_saturated_toggle", 8, 2, 0.07, "toggle"},
        // The paper's Sec. 4.3 two-level task workload (exponential
        // task arrivals driving banks of ON/OFF sources) through the
        // workload factory: the generator's per-cycle bookkeeping is
        // on the hot path for every figure bench, so the baseline
        // guards it alongside the synthetic-pattern points.  Rate is
        // network-wide packets/cycle for factory workloads.
        {"network_8x8_history_twolevel", 8, 2, 1.2, "table",
         "two-level"},
    };
    for (const NetPoint &pt : kNetPoints) {
        if (!g_netFilter.empty() &&
            std::string(pt.name).find(g_netFilter) == std::string::npos)
            continue;
        Json nw = measureNetwork(pt.name, pt.radix, pt.numVcs, pt.rate,
                                 nwWarmup, nwMeasure, pt.linkPower,
                                 pt.workload);
        std::printf("  %s: %.3g cycles/sec, %.3g events/sec, "
                    "%.3g flits/sec\n",
                    pt.name, nw.find("cycles_per_sec")->asDouble(),
                    nw.find("events_per_sec")->asDouble(),
                    nw.find("flits_per_sec")->asDouble());
        results.push(std::move(nw));
    }

    root["wall_seconds"] =
        Json(std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - processStart)
                 .count());
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

/**
 * Value of `--seed` / `--threads`: a count as the other benches read
 * theirs (dvsnet::parseCount).  Anything else is fatal and names the
 * flag, instead of silently becoming 0, a prefix, or a wrapped negative.
 */
std::uint64_t
nonNegativeFlag(const char *flag, const char *value)
{
    if (const auto parsed = parseCount(value))
        return *parsed;
    DVSNET_FATAL("flag '", flag, "': '", value,
                 "' is not a non-negative integer");
}

} // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): accept the repo-wide
 * `--threads N` / `--seed S` flags plus `--json <path>` / `--quick`
 * (and strip them before google-benchmark sees the argv), and print
 * them in the header so a recorded run is reproducible from its output
 * alone.
 */
int
main(int argc, char **argv)
{
    const auto processStart = std::chrono::steady_clock::now();
    std::size_t threads = 0;
    std::string jsonPath;
    bool quick = false;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        auto takeValue = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "flag '%s' expects a value\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        if (const char *v = takeValue("--seed"))
            g_seed = nonNegativeFlag("--seed", v);
        else if (const char *v = takeValue("--threads"))
            threads = nonNegativeFlag("--threads", v);
        else if (const char *v = takeValue("--json"))
            jsonPath = v;
        else if (const char *v = takeValue("--net-filter"))
            g_netFilter = v;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            passthrough.push_back(argv[i]);
    }
    // Micro-benchmarks are single-threaded by design; --threads is
    // accepted for command-line uniformity and echoed for the record.
    std::printf("== micro-benchmarks == (seed=%llu, threads=%zu "
                "[resolved %zu; timing loops run serially])\n",
                static_cast<unsigned long long>(g_seed), threads,
                dvsnet::exp::resolveThreadCount(threads));

    if (!quick) {
        int bmArgc = static_cast<int>(passthrough.size());
        benchmark::Initialize(&bmArgc, passthrough.data());
        if (benchmark::ReportUnrecognizedArguments(bmArgc,
                                                   passthrough.data()))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    } else {
        std::printf("(--quick: skipping the google-benchmark suite)\n");
    }

    if (!jsonPath.empty())
        writeArtifact(jsonPath, g_seed, threads, quick, processStart);
    return 0;
}
