/**
 * @file
 * dvsnet_perfbench: the repository benchmark's measuring binary.
 *
 *     dvsnet_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      --threads T --out RESULT.json [--spans SPANS.json]
 *                      [--tiny]
 *
 * Untraced (--trace 0): a warm-up round, then rounds of the workload
 * until S seconds have passed, with set-up timed and the host-speed
 * reference (hostref.hpp) sampled between rounds; reports the end-to-end
 * metrics as medians over rounds, host times scaled to the nominal host.
 * Traced (--trace 1): a reference round, then the
 * traced pass's executor without spans, the traced pass with spans and
 * layer counters, that executor without spans again, and each point's
 * traffic generator driven alone; reports the per-layer metrics and
 * writes the spans.  Both modes run the correctness gate: every point ok with its
 * invariants checked and unbroken, repeated and traced results
 * bit-identical to the first untraced round, and the standalone
 * generator's packet count equal to the network's.
 *
 * perfbench/run.py builds this binary and turns RESULT.json into the
 * benchmark's result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "hostref.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace dvsnet;
using namespace perfbench;

namespace
{

constexpr std::size_t kSetupSamplesPerRound = 3;
constexpr double kSetupSampleS = 0.1;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxFailureMessages = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t threads = 4;
    bool tiny = false;
    std::string out;
    std::string spans;
};

std::uint64_t
parseCount(const std::string &flag, const std::string &value)
{
    std::size_t used = 0;
    unsigned long long parsed = 0;
    try {
        parsed = std::stoull(value, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != value.size() || value[0] == '-')
        throw std::invalid_argument(flag + " expects a non-negative integer");
    return parsed;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " expects a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            a.trace = parseCount(flag, value) != 0;
        else if (flag == "--threads")
            a.threads = parseCount(flag, value);
        else if (flag == "--out")
            a.out = value;
        else if (flag == "--spans")
            a.spans = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.workload.empty() || a.out.empty() || a.threads == 0)
        throw std::invalid_argument(
            "need --workload, --out and a positive --threads");
    return a;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** User + system CPU seconds of every thread of the process so far. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** The correctness gate: attempted/failed operations and why. */
struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    fail(const std::string &message)
    {
        ++failed;
        if (failures.size() < kMaxFailureMessages)
            failures.push_back(message);
    }

    /** Check one result; `reference` is the first untraced round's. */
    void
    check(const char *what, std::size_t index, bool ok,
          const std::string &error, const network::RunResults &results,
          const network::RunResults *reference)
    {
        ++attempted;
        const std::string where =
            std::string(what) + " point " + std::to_string(index);
        if (!ok)
            fail(where + " failed: " + error);
        else if (results.invariantChecks == 0)
            fail(where + " ran no invariant checks");
        else if (results.invariantFailures != 0)
            fail(where + " broke " +
                 std::to_string(results.invariantFailures) + " invariants");
        else if (reference &&
                 canonicalResults(results) != canonicalResults(*reference))
            fail(where + " results differ from the first untraced round");
    }

    void
    checkPoints(const char *what, const std::vector<Point> &points,
                const std::vector<Point> *reference)
    {
        if (reference && reference->size() != points.size()) {
            ++attempted;
            fail(std::string(what) + ": point count differs from the first "
                                     "untraced round");
            reference = nullptr;
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
            check(what, i, points[i].ok, points[i].error, points[i].results,
                  reference ? &(*reference)[i].results : nullptr);
        }
    }

    void
    checkSearch(const Round &round)
    {
        if (!round.searched)
            return;
        ++attempted;
        if (!round.outcome.completed)
            fail("search stopped before its last rung");
    }
};

std::vector<exp::PointJob>
jobsOf(const std::vector<Point> &points)
{
    std::vector<exp::PointJob> jobs;
    for (const auto &p : points)
        jobs.push_back(p.job);
    return jobs;
}

/** Metrics of one batch of runner points with their wall times. */
struct PointBatch
{
    std::vector<double> walls;
    double cyclesPerSecond = 0.0;
};

PointBatch
pointBatch(const std::vector<Point> &points)
{
    PointBatch b;
    double cycles = 0.0;
    double seconds = 0.0;
    for (const auto &p : points) {
        b.walls.push_back(p.wallSeconds);
        cycles += static_cast<double>(pointCycles(p.job));
        seconds += p.wallSeconds;
    }
    b.cyclesPerSecond = ratio(cycles, seconds);
    return b;
}

Json
toJson(const std::map<std::string, double> &values)
{
    Json j = Json::object();
    for (const auto &[name, value] : values)
        j[name] = Json(value);
    return j;
}

/** Host-time metrics over the timed rounds, medians over rounds. */
std::map<std::string, double>
hostMetrics(const std::vector<double> &walls, const std::vector<double> &setups,
            const std::vector<PointBatch> &batches)
{
    // Every batch times the same points in the same order, so the
    // slowest point is the one whose median over batches is highest.
    std::vector<double> allPointWalls;
    std::vector<double> cyclesPerSecond;
    std::vector<std::vector<double>> wallsByPoint(batches.front().walls.size());
    for (const auto &b : batches) {
        allPointWalls.insert(allPointWalls.end(), b.walls.begin(),
                             b.walls.end());
        for (std::size_t i = 0; i < b.walls.size() && i < wallsByPoint.size();
             ++i)
            wallsByPoint[i].push_back(b.walls[i]);
        cyclesPerSecond.push_back(b.cyclesPerSecond);
    }
    double slowestPoint = 0.0;
    for (const auto &pointWalls : wallsByPoint)
        slowestPoint = std::max(slowestPoint, median(pointWalls));

    std::map<std::string, double> m;
    m["wall_s"] = median(walls);
    m["setup_s"] = median(setups);
    m["sim_cycles_per_cpu_s"] = median(cyclesPerSecond);
    m["point_s_p50"] = median(allPointWalls);
    m["point_s_max"] = slowestPoint;
    return m;
}

Json
untraced(const Args &args, const Workload &w, Gate &gate)
{
    const auto start = std::chrono::steady_clock::now();

    // Set-up samples: each averages enough passes to last ~kSetupSampleS,
    // so a workload with cheap set-up is not timed at clock resolution.
    // The first pass only sizes the samples.  Samples are taken between
    // rounds, so they see the same host conditions as the rounds.
    const double firstPass = setupSeconds(w);
    const auto passes = static_cast<std::size_t>(std::clamp(
        std::ceil(kSetupSampleS / std::max(firstPass, 1e-6)), 1.0, 100.0));
    auto setupSample = [&]() {
        double sum = 0.0;
        for (std::size_t p = 0; p < passes; ++p)
            sum += setupSeconds(w);
        return sum / static_cast<double>(passes);
    };

    // Warm-up round, not timed: first-touch page faults and allocator
    // growth.  It gives the results every timed round must reproduce.
    const Round first = runRound(w, args.threads);
    gate.checkSearch(first);
    gate.checkPoints("warm-up", first.points, nullptr);
    std::printf("warm-up: wall %.3f s, %zu points, digest %s\n",
                first.wallSeconds, first.points.size(), first.digest.c_str());

    HostReference reference(args.threads);
    reference.sample();  // warms the kernel up
    std::vector<double> refs = {reference.sample()};

    // Timed phase: rounds until the time budget is spent, the host
    // reference sampled after each.
    std::size_t rounds = 0;
    std::vector<double> walls;
    std::vector<double> setups;
    std::vector<PointBatch> batches;
    for (;;) {
        const auto iterStart = std::chrono::steady_clock::now();
        for (std::size_t k = 0; k < kSetupSamplesPerRound; ++k)
            setups.push_back(setupSample());

        Round r = runRound(w, args.threads);
        gate.checkSearch(r);
        gate.checkPoints("round", r.points, &first.points);
        if (r.digest != first.digest)
            gate.fail("round digest differs from the warm-up round");
        walls.push_back(r.wallSeconds);
        if (w.search) {
            // The search runs its evaluations inside SearchDriver, out of
            // sight, so they are replayed on one ExperimentRunner, which
            // times every point.
            const auto replay = runPoints(jobsOf(r.points), args.threads);
            gate.checkPoints("replay", replay, &r.points);
            batches.push_back(pointBatch(replay));
        } else {
            batches.push_back(pointBatch(r.points));
        }
        refs.push_back(reference.sample());
        std::printf("round %zu: wall %.4f s, point p50 %.4f s, "
                    "host reference %.4f s\n",
                    rounds, r.wallSeconds, median(batches.back().walls),
                    refs.back());
        std::fflush(stdout);
        ++rounds;

        const double iteration = secondsSince(iterStart);
        if (rounds >= kMinRounds &&
            secondsSince(start) + iteration > args.seconds)
            break;
    }

    // Host times scaled to the nominal host (hostref.hpp).
    const auto raw = hostMetrics(walls, setups, batches);
    const double scale = HostReference::kNominalSeconds / median(refs);
    std::map<std::string, double> m;
    for (const auto &[name, value] : raw)
        m[name] = name == "sim_cycles_per_cpu_s" ? value / scale
                                                 : value * scale;
    const ModelMetrics model = modelMetrics(w, first);
    m["peak_rss_mb"] = peakRssMb();
    m["model.savings_x"] = model.savingsX;
    m["model.throughput_flits"] = model.throughputFlits;
    m["model.hypervolume"] = model.hypervolume;

    std::map<std::string, double> info;
    for (const auto &[name, value] : raw)
        info["raw." + name] = value;
    info["host_reference_s"] = median(refs);
    info["warmup_wall_s"] = first.wallSeconds;
    info["rounds"] = static_cast<double>(rounds);
    info["point_samples"] =
        static_cast<double>(rounds * batches.front().walls.size());
    info["setup_samples"] = static_cast<double>(setups.size());
    info["model.latency_ratio"] =
        std::isnan(model.latencyRatio) ? -1.0 : model.latencyRatio;

    Json out = Json::object();
    out["metrics"] = toJson(m);
    out["info"] = toJson(info);
    out["results_digest"] = Json(first.digest);
    return out;
}

/**
 * The traced passes under one root span, which closes when this returns;
 * the spans are written after that, so the file holds the root too.
 */
Json
tracedRun(const Args &args, const Workload &w, Gate &gate, SpanLog &log)
{
    ScopedSpan root(&log, "benchmark", 0);

    // The reference round on the runner.  It also warms the process up
    // (first-touch page faults, allocator growth), so it is not compared
    // with the traced pass.
    Round u;
    {
        ScopedSpan s(&log, "untraced.round", root.id());
        u = runRound(w, args.threads);
    }
    gate.checkSearch(u);
    gate.checkPoints("untraced", u.points, nullptr);
    const auto jobs = jobsOf(u.points);

    // The executor of the traced pass without spans: the search, or the
    // points run by the benchmark itself.  Its wall time is what the
    // traced pass's is compared with, so only the spans differ.
    auto untracedPass = [&]() {
        ScopedSpan s(&log, "untraced.pass", root.id());
        double wall = 0.0;
        if (w.search) {
            const Round r = runRound(w, args.threads);
            gate.checkSearch(r);
            gate.checkPoints("untraced", r.points, &u.points);
            wall = r.wallSeconds;
        } else {
            const auto samples =
                runTracedPoints(jobs, args.threads, nullptr, 0, wall);
            for (std::size_t i = 0; i < samples.size(); ++i)
                gate.check("untraced", i, samples[i].ok, samples[i].error,
                           samples[i].results, &u.points[i].results);
        }
        return wall;
    };
    const double before = untracedPass();

    // The traced pass: the search again with spans around the driver
    // calls, or the points run by the benchmark itself.  Layer counters
    // of the search's evaluations come from replaying them traced.
    double tracedWall = 0.0;
    double searchCpuS = 0.0;
    Round t;
    std::vector<LayerSample> layers;
    if (w.search) {
        const double cpuBefore = cpuSeconds();
        t = runRound(w, args.threads, &log, root.id());
        searchCpuS = cpuSeconds() - cpuBefore;
        tracedWall = t.wallSeconds;
        gate.checkSearch(t);
        if (t.digest != u.digest)
            gate.fail("traced search digest differs from the untraced one");
        double replayWall = 0.0;
        layers = runTracedPoints(jobs, args.threads, &log, root.id(),
                                 replayWall);
    } else {
        layers = runTracedPoints(jobs, args.threads, &log, root.id(),
                                 tracedWall);
    }

    // Untraced again after the traced pass: the mean of the passes before
    // and after cancels a steady drift of host speed out of the overhead.
    const double untracedWall = 0.5 * (before + untracedPass());

    const auto gens =
        runGeneratorsAlone(jobs, args.threads, log, root.id());

    for (std::size_t i = 0; i < layers.size(); ++i) {
        gate.check("traced", i, layers[i].ok, layers[i].error,
                   layers[i].results, &u.points[i].results);
        ++gate.attempted;
        if (!gens[i].ok)
            gate.fail("generator " + std::to_string(i) + ": " + gens[i].error);
        else if (gens[i].packets != layers[i].packetsCreated)
            gate.fail("point " + std::to_string(i) + ": standalone generator "
                      "made " + std::to_string(gens[i].packets) +
                      " packets, the network created " +
                      std::to_string(layers[i].packetsCreated));
    }

    double pointS = 0, constructS = 0, runS = 0, genS = 0;
    double cycles = 0, routerCycles = 0, steps = 0, wakes = 0, events = 0;
    double genEvents = 0, genPackets = 0, flits = 0, flitBursts = 0;
    double creditBursts = 0, started = 0, rejected = 0, created = 0;
    double delivered = 0;
    core::ControllerStats ctl;
    for (const auto &s : layers) {
        pointS += s.pointS;
        constructS += s.constructS;
        runS += s.runS;
        cycles += static_cast<double>(s.cycles);
        routerCycles += static_cast<double>(s.cycles * s.routers);
        steps += static_cast<double>(s.routerSteps);
        wakes += static_cast<double>(s.routerWakes);
        events += static_cast<double>(s.events);
        flits += static_cast<double>(s.flitsSent);
        flitBursts += static_cast<double>(s.flitBursts);
        creditBursts += static_cast<double>(s.creditBursts);
        started += static_cast<double>(s.stepsStarted);
        rejected += static_cast<double>(s.stepsRejected);
        created += static_cast<double>(s.results.packetsCreated);
        delivered += static_cast<double>(s.results.packetsDelivered);
        ctl.windows += s.controllers.windows;
        ctl.stepsFaster += s.controllers.stepsFaster;
        ctl.stepsSlower += s.controllers.stepsSlower;
        ctl.holds += s.controllers.holds;
        ctl.skippedBusy += s.controllers.skippedBusy;
    }
    for (const auto &g : gens) {
        genS += g.genS;
        genEvents += static_cast<double>(g.events);
        genPackets += static_cast<double>(g.packets);
    }
    const double threads = static_cast<double>(args.threads);
    const Round &searchRound = w.search ? t : u;
    auto searchCount = [&](const char *name) {
        const auto it = searchRound.searchCounters.find(name);
        return it == searchRound.searchCounters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };

    // The search's evaluations run out of sight inside SearchDriver; its
    // workers are busy exactly while they simulate and the calling thread
    // sleeps in the runner, so the process CPU time stands for their sum.
    if (w.search)
        pointS = searchCpuS;

    std::map<std::string, double> m;
    m["exp.points"] = static_cast<double>(layers.size());
    m["exp.point_s_sum"] = pointS;
    m["exp.parallel_efficiency"] = ratio(pointS, threads * tracedWall);
    m["exp.idle_s"] = threads * tracedWall - pointS;
    m["network.construct_s"] = constructS;
    m["network.run_s"] = runS;
    m["network.cycles"] = cycles;
    m["network.router_steps"] = steps;
    m["network.router_wakes"] = wakes;
    m["network.active_router_frac"] = ratio(steps, routerCycles);
    m["network.ns_per_router_step"] = 1e9 * ratio(runS - genS, steps);
    m["sim.events"] = events;
    m["sim.events_per_cycle"] = ratio(events, cycles);
    m["sim.ns_per_event"] = 1e9 * ratio(runS, events);
    m["workload.gen_s"] = genS;
    m["workload.events"] = genEvents;
    m["workload.packets"] = genPackets;
    m["workload.ns_per_event"] = 1e9 * ratio(genS, genEvents);
    m["workload.share"] = ratio(genS, runS);
    m["link.flits_sent"] = flits;
    m["link.flit_bursts"] = flitBursts;
    m["link.credit_bursts"] = creditBursts;
    m["link.flits_per_burst"] = ratio(flits, flitBursts);
    m["core.windows"] = static_cast<double>(ctl.windows);
    m["core.steps_faster"] = static_cast<double>(ctl.stepsFaster);
    m["core.steps_slower"] = static_cast<double>(ctl.stepsSlower);
    m["core.holds"] = static_cast<double>(ctl.holds);
    m["core.skipped_busy_frac"] = ratio(
        static_cast<double>(ctl.skippedBusy), static_cast<double>(ctl.windows));
    m["dvs.steps_started"] = started;
    m["dvs.steps_rejected"] = rejected;
    m["dvs.reject_frac"] = ratio(rejected, started + rejected);
    m["metrics.delivered_frac"] = ratio(delivered, created);
    m["search.run_s"] = searchRound.searchRunSeconds;
    m["search.network_evals"] = searchCount("search.network_evals");
    m["search.network_evals_full"] = searchCount("search.network_evals_full");
    m["search.cache_hits"] = searchCount("search.cache_hits");
    m["search.culled"] = searchCount("search.culled");
    m["search.sim_cycles"] = static_cast<double>(searchRound.searchSimCycles);
    m["trace.overhead_s"] = tracedWall - untracedWall;
    m["trace.overhead_frac"] = ratio(tracedWall - untracedWall, untracedWall);

    std::map<std::string, double> info;
    info["untraced_wall_s"] = untracedWall;
    info["traced_wall_s"] = tracedWall;

    Json out = Json::object();
    out["metrics"] = toJson(m);
    out["info"] = toJson(info);
    out["results_digest"] = Json(u.digest);
    return out;
}

Json
traced(const Args &args, const Workload &w, Gate &gate)
{
    SpanLog log;
    Json out = tracedRun(args, w, gate, log);
    if (!args.spans.empty()) {
        std::ofstream spans(args.spans);
        spans << log.toJson().dump() << "\n";
        if (!spans)
            throw std::runtime_error("cannot write spans to " + args.spans);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        const Workload w = makeWorkload(args.workload, args.seed, args.tiny);
        Gate gate;
        Json out = args.trace ? traced(args, w, gate) : untraced(args, w, gate);

        out["workload"] = Json(args.workload);
        out["seed"] = Json(std::to_string(args.seed));
        out["threads"] = Json(static_cast<std::uint64_t>(args.threads));
        out["nproc"] = Json(static_cast<std::uint64_t>(
            std::max(1u, std::thread::hardware_concurrency())));
        out["trace"] = Json(args.trace);
        out["correct"] = Json(gate.failed == 0);
        out["attempted"] = Json(gate.attempted);
        out["failed"] = Json(gate.failed);
        Json failures = Json::array();
        for (const auto &f : gate.failures)
            failures.push(Json(f));
        out["failures"] = std::move(failures);

        std::ofstream file(args.out);
        file << out.dump(2) << "\n";
        if (!file)
            throw std::runtime_error("cannot write " + args.out);
        return gate.failed == 0 ? 0 : 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dvsnet_perfbench: %s\n", e.what());
        return 1;
    }
}
