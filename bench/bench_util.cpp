#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/fatal.hpp"
#include "common/json.hpp"
#include "power/link_power.hpp"
#include "workload/factory.hpp"

#ifndef DVSNET_GIT_DESCRIBE
#define DVSNET_GIT_DESCRIBE "unknown"
#endif

namespace dvsnet::bench
{

namespace
{

/** The in-flight run artifact; one per process, begun by printHeader. */
struct ReportState
{
    bool active = false;
    Json root = Json::object();
    Json results = Json::array();
    std::chrono::steady_clock::time_point start{};
};

ReportState g_report;

} // namespace

BenchOptions
parseOptions(int argc, char **argv, const Defaults &defaults)
{
    // Spec::fromArgs has no bare-flag form, so rewrite the standalone
    // `--quick` token into its `quick=1` equivalent before parsing.
    std::vector<std::string> storage(argv, argv + argc);
    std::vector<char *> args;
    args.reserve(storage.size());
    for (auto &arg : storage) {
        if (arg == "--quick")
            arg = "quick=1";
        args.push_back(arg.data());
    }
    BenchOptions opts;
    opts.raw = Spec::fromArgs(static_cast<int>(args.size()), args.data());

    // Quick mode drops the defaults to smoke fidelity; explicit keys and
    // DVSNET_* environment variables keep their usual priority.
    opts.quick = opts.raw.boolean("quick", false);
    // Counts are non-negative: a negative value is refused, never
    // wrapped.
    opts.warmup = opts.raw.countEnv(
        "warmup", opts.quick ? defaults.quickWarmup : defaults.warmup);
    opts.measure = opts.raw.countEnv(
        "cycles", opts.quick ? defaults.quickMeasure : defaults.measure);
    opts.seed = opts.raw.countEnv("seed", opts.seed);
    opts.csv = opts.raw.boolean("csv", false);
    // A sweep needs at least two points.  Both counts are capped: each
    // point is a job and each thread a worker, made before anything
    // runs.
    opts.sweepPoints = static_cast<std::int64_t>(opts.raw.countEnv(
        "points", opts.quick ? 2 : defaults.sweepPoints, 2,
        network::kMaxSweepPoints));
    opts.threads = opts.raw.countEnv("threads", 0, 0, exp::kMaxThreads);
    opts.jsonPath = opts.raw.text("json", "");
    opts.workload = opts.raw.text("workload", "");
    if (!opts.workload.empty()) {
        const auto problems =
            workload::validateWorkloadSpec(opts.workload);
        if (!problems.empty())
            throw ConfigError(joinProblems("invalid --workload", problems));
    }
    opts.linkPower = opts.raw.text("link-power", "");
    if (!opts.linkPower.empty()) {
        const auto problems =
            power::validateLinkPowerSpec(opts.linkPower);
        if (!problems.empty()) {
            throw ConfigError(
                joinProblems("invalid --link-power", problems));
        }
    }
    return opts;
}

void
rejectUnknownKeys(const BenchOptions &opts,
                  const std::vector<std::string> &extra)
{
    std::vector<std::string> accepted = {
        // parseOptions
        "quick", "warmup", "cycles", "seed", "csv",
        "points", "threads", "json", "workload", "link-power",
        // paperSpec
        "tasks", "task_duration", "sources"};
    accepted.insert(accepted.end(), extra.begin(), extra.end());
    opts.raw.rejectUnknownKeys(accepted);
}

std::unique_ptr<traffic::TrafficGenerator>
openLoopWorkload(const BenchOptions &opts,
                 const network::ExperimentSpec &spec,
                 const topo::KAryNCube &topo, double rate)
{
    auto generator = workload::buildWorkload(
        spec.workloadSpec,
        {topo, rate, spec.workload.seed, spec.workload});
    if (generator->wantsDeliveries())
        opts.raw.reject("workload", "must be an open-loop workload: a "
                                    "closed-loop one needs a network");
    return generator;
}

exp::RunnerOptions
runnerOptions(const BenchOptions &opts)
{
    exp::RunnerOptions ro;
    ro.threads = opts.threads;
    return ro;
}

std::vector<exp::PointResult>
collectAll(exp::ExperimentRunner &runner)
{
    auto results = runner.collect();
    for (const auto &r : results) {
        if (!r.ok) {
            DVSNET_FATAL("point at rate ", r.injectionRate,
                         " failed: ", r.error);
        }
    }
    return results;
}

std::vector<std::vector<network::SweepPoint>>
runSweeps(const BenchOptions &opts,
          const std::vector<network::ExperimentSpec> &specs,
          const std::vector<double> &rates)
{
    exp::ExperimentRunner runner(runnerOptions(opts));
    for (const auto &spec : specs)
        runner.submitSweep(spec, rates);
    const auto results = collectAll(runner);

    std::vector<std::vector<network::SweepPoint>> series(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        Json entry = Json::object();
        entry["type"] = Json("sweep");
        entry["spec"] = network::toJson(specs[s]);
        Json points = Json::array();
        series[s].reserve(rates.size());
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const auto &r = results[s * rates.size() + i];
            points.push(exp::toJson(r));
            series[s].push_back(r.toSweepPoint());
        }
        entry["points"] = std::move(points);
        recordResult(std::move(entry));
    }
    return series;
}

std::vector<network::RunResults>
runPoints(const BenchOptions &opts,
          const std::vector<network::ExperimentSpec> &specs,
          const std::vector<double> &rates)
{
    DVSNET_ASSERT(specs.size() == rates.size(),
                  "one rate per spec required");
    exp::ExperimentRunner runner(runnerOptions(opts));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        exp::PointJob job;
        job.spec = specs[i];
        job.injectionRate = rates[i];
        job.seed = specs[i].workload.seed;
        runner.submit(std::move(job));
    }
    const auto results = collectAll(runner);

    Json entry = Json::object();
    entry["type"] = Json("points");
    Json points = Json::array();

    std::vector<network::RunResults> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        Json p = exp::toJson(r);
        p["spec"] = network::toJson(specs[i]);
        points.push(std::move(p));
        out.push_back(r.results);
    }
    entry["points"] = std::move(points);
    recordResult(std::move(entry));
    return out;
}

std::vector<exp::PointResult>
runObservedPoints(const BenchOptions &opts,
                  const std::vector<network::ExperimentSpec> &specs,
                  const std::vector<double> &rates,
                  const std::function<void(network::Network &)> &observe)
{
    DVSNET_ASSERT(specs.size() == rates.size(),
                  "one rate per spec required");
    exp::ExperimentRunner runner(runnerOptions(opts));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        exp::PointJob job;
        job.spec = specs[i];
        job.injectionRate = rates[i];
        job.seed = specs[i].workload.seed;
        // A network that has run no cycle continues to any measurement.
        job.resume = std::make_shared<exp::LiveNetwork>(job, nullptr);
        if (observe)
            observe(job.resume->network());
        job.keep = true;
        runner.submit(std::move(job));
    }
    return collectAll(runner);
}

network::ExperimentSpec
paperSpec(const BenchOptions &opts)
{
    network::ExperimentSpec spec;
    // NetworkConfig / RouterConfig / DvsLinkParams defaults already
    // encode Section 4.2; the workload gets the 100-task defaults.
    // Quick mode shrinks the workload population so smoke runs finish
    // in seconds (explicit keys still win).
    spec.workload.avgConcurrentTasks =
        opts.raw.integer("tasks", opts.quick ? 12 : 100);
    spec.workload.meanTaskDurationCycles =
        opts.raw.number("task_duration", 1e6);
    spec.workload.sourcesPerTask =
        opts.raw.integer<std::int32_t>("sources", opts.quick ? 16 : 128);
    spec.workload.seed = opts.seed;
    if (!opts.workload.empty())
        spec.workloadSpec = opts.workload;
    if (!opts.linkPower.empty())
        spec.network.linkPowerSpec = opts.linkPower;
    spec.warmup = opts.warmup;
    spec.measure = opts.measure;
    // Bad tasks/task_duration/sources values stop here, before any
    // network or generator is built.
    const auto problems = spec.validate();
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid bench options", problems));
    return spec;
}

void
setPolicy(network::ExperimentSpec &spec, const std::string &name)
{
    using network::PolicyKind;
    std::string names;
    for (const PolicyKind kind :
         {PolicyKind::None, PolicyKind::History, PolicyKind::LinkUtilOnly,
          PolicyKind::StaticLevel, PolicyKind::DynamicThreshold}) {
        if (name == network::policyKindName(kind)) {
            spec.network.policy = kind;
            return;
        }
        names += (names.empty() ? "" : ", ") +
                 std::string(network::policyKindName(kind));
    }
    throw ConfigError(detail::concat("unknown policy '", name,
                                     "' (valid: ", names, ")"));
}

void
printHeader(const std::string &figure, const std::string &what,
            const BenchOptions &opts)
{
    std::printf("== %s: %s ==\n", figure.c_str(), what.c_str());
    std::printf("   (warmup=%llu measure=%llu cycles, seed=%llu, "
                "threads=%zu; paper uses 10M-cycle runs — shapes, not "
                "absolutes, are the reproduction target)\n",
                static_cast<unsigned long long>(opts.warmup),
                static_cast<unsigned long long>(opts.measure),
                static_cast<unsigned long long>(opts.seed),
                exp::resolveThreadCount(opts.threads));

    g_report = ReportState{};
    g_report.active = true;
    g_report.start = std::chrono::steady_clock::now();
    Json &root = g_report.root;
    root["schema"] = Json("dvsnet-bench-v1");
    root["binary"] = Json(opts.raw.name);
    root["figure"] = Json(figure);
    root["description"] = Json(what);
    root["git_describe"] = Json(DVSNET_GIT_DESCRIBE);
    root["seed"] = Json(std::to_string(opts.seed));
    root["threads"] = Json(static_cast<std::uint64_t>(
        exp::resolveThreadCount(opts.threads)));
    root["quick"] = Json(opts.quick);
    root["workload"] =
        Json(opts.workload.empty() ? std::string("default")
                                   : opts.workload);
    {
        // Spec echo + resolved backend name; parse cannot fail here —
        // parseOptions already validated a non-empty --link-power.
        const std::string spec =
            opts.linkPower.empty() ? std::string("table") : opts.linkPower;
        Json linkPower = Json::object();
        linkPower["spec"] = Json(spec);
        linkPower["backend"] = Json(Spec::parse(spec).name);
        root["link_power"] = std::move(linkPower);
    }
    root["warmup_cycles"] = Json(static_cast<std::uint64_t>(opts.warmup));
    root["measure_cycles"] = Json(static_cast<std::uint64_t>(opts.measure));
    root["sweep_points"] = Json(opts.sweepPoints);
    // Sorted by key; fromArgs refused any repeated key.
    auto params = opts.raw.params;
    std::sort(params.begin(), params.end());
    Json cfg = Json::object();
    for (const auto &[key, value] : params)
        cfg[key] = Json(value);
    root["config"] = std::move(cfg);
}

void
printTable(const Table &table, const BenchOptions &opts)
{
    if (opts.csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        std::fputs(table.toText().c_str(), stdout);

    Json entry = Json::object();
    entry["type"] = Json("table");
    Json columns = Json::array();
    for (const auto &h : table.headers())
        columns.push(Json(h));
    entry["columns"] = std::move(columns);
    Json rows = Json::array();
    for (const auto &row : table.rowData()) {
        Json cells = Json::array();
        for (const auto &cell : row)
            cells.push(Json(cell));
        rows.push(std::move(cells));
    }
    entry["rows"] = std::move(rows);
    recordResult(std::move(entry));
}

void
recordResult(Json entry)
{
    if (g_report.active)
        g_report.results.push(std::move(entry));
}

void
finishReport(const BenchOptions &opts)
{
    if (!g_report.active)
        return;
    g_report.active = false;
    if (opts.jsonPath.empty())
        return;

    Json root = std::move(g_report.root);
    root["wall_seconds"] = Json(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      g_report.start)
            .count());
    root["results"] = std::move(g_report.results);

    std::ofstream out(opts.jsonPath);
    if (!out)
        DVSNET_FATAL("cannot open JSON artifact path '", opts.jsonPath,
                     "'");
    out << root.dump(2) << "\n";
    out.flush();
    if (!out)
        DVSNET_FATAL("failed writing JSON artifact '", opts.jsonPath, "'");
    std::fprintf(stderr, "wrote JSON artifact: %s\n", opts.jsonPath.c_str());
}

double
rateOption(const BenchOptions &opts, const std::string &key, double def)
{
    // paperSpec leaves the topology at NetworkConfig's 8x8 default.
    return opts.raw.number(
        key, def, network::kMinInjectionRate,
        network::maxInjectionRate(network::NetworkConfig{}));
}

std::vector<double>
defaultRates(const BenchOptions &opts, double lo, double hi)
{
    lo = rateOption(opts, "rate_lo", lo);
    hi = rateOption(opts, "rate_hi", hi);
    if (hi <= lo) {
        opts.raw.reject("rate_hi", detail::concat("must be a finite rate "
                                                  "above rate_lo = ",
                                                  lo));
    }
    return network::rateGrid(lo, hi,
                             static_cast<std::size_t>(opts.sweepPoints));
}

void
runDvsComparison(const BenchOptions &opts, double taskCount,
                 const std::vector<double> &rates)
{
    network::ExperimentSpec baseSpec = paperSpec(opts);
    baseSpec.workload.avgConcurrentTasks = taskCount;
    setPolicy(baseSpec, "none");

    network::ExperimentSpec dvsSpec = baseSpec;
    setPolicy(dvsSpec, "history");

    // All four series — both zero-load probes and both matched sweeps —
    // share one worker pool, so the whole figure parallelizes across
    // every available thread.  The zero-load probes use the base seed;
    // sweep point i uses pointSeed(baseSeed, i).
    exp::ExperimentRunner runner(runnerOptions(opts));
    // Low enough that queueing is negligible, high enough that the
    // window still sees a few hundred packets.
    const double zeroLoadRate = 0.05;
    for (const auto *spec : {&baseSpec, &dvsSpec}) {
        exp::PointJob job;
        job.spec = *spec;
        job.injectionRate = zeroLoadRate;
        job.seed = spec->workload.seed;
        job.label = "zero-load";
        runner.submit(std::move(job));
    }
    runner.submitSweep(baseSpec, rates);
    runner.submitSweep(dvsSpec, rates);
    const auto results = collectAll(runner);
    DVSNET_ASSERT(results[0].results.packetsDelivered > 0 &&
                      results[1].results.packetsDelivered > 0,
                  "zero-load run delivered nothing");
    const double zeroBase = results[0].results.avgLatencyCycles;
    const double zeroDvs = results[1].results.avgLatencyCycles;

    std::vector<network::SweepPoint> base, dvs;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        base.push_back(results[2 + i].toSweepPoint());
        dvs.push_back(results[2 + rates.size() + i].toSweepPoint());
    }

    // Artifact: the two zero-load probes plus both labelled sweeps.
    const struct
    {
        const char *label;
        const network::ExperimentSpec *spec;
        std::size_t offset;
    } sweeps[] = {{"no-dvs", &baseSpec, 2},
                  {"history-dvs", &dvsSpec, 2 + rates.size()}};
    for (std::size_t s = 0; s < 2; ++s) {
        Json probe = Json::object();
        probe["type"] = Json("point");
        probe["label"] =
            Json(std::string("zero-load-") + (s == 0 ? "base" : "dvs"));
        probe["result"] = exp::toJson(results[s]);
        recordResult(std::move(probe));

        Json entry = Json::object();
        entry["type"] = Json("sweep");
        entry["label"] = Json(sweeps[s].label);
        entry["spec"] = network::toJson(*sweeps[s].spec);
        Json points = Json::array();
        for (std::size_t i = 0; i < rates.size(); ++i)
            points.push(exp::toJson(results[sweeps[s].offset + i]));
        entry["points"] = std::move(points);
        recordResult(std::move(entry));
    }

    Table t({"rate", "offered", "lat base", "lat DVS", "thr base",
             "thr DVS", "norm power", "savings", "avg level"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &b = base[i].results;
        const auto &d = dvs[i].results;
        t.addRow({Table::num(rates[i], 2),
                  Table::num(d.offeredLoadPktsPerCycle, 2),
                  network::latencyCell(b), network::latencyCell(d),
                  Table::num(b.throughputPktsPerCycle, 3),
                  Table::num(d.throughputPktsPerCycle, 3),
                  Table::num(d.normalizedPower, 3),
                  Table::num(d.savingsFactor, 2),
                  Table::num(d.avgChannelLevel, 2)});
    }
    printTable(t, opts);

    const auto cmp = network::compareDvs(base, dvs, zeroBase, zeroDvs);
    std::printf("\nsummary vs paper (%d tasks):\n",
                static_cast<int>(taskCount));
    Table s({"metric", "paper", "measured"});
    const bool hundred = taskCount >= 99.0;
    s.addRow({"zero-load latency increase",
              hundred ? "10.8%" : "(n/a)",
              Table::num(cmp.zeroLoadIncreasePct, 1) + "%"});
    s.addRow({"pre-saturation latency increase",
              hundred ? "15.2%" : "14.7%",
              Table::num(cmp.preSatLatencyIncreasePct, 1) + "%"});
    s.addRow({"throughput reduction (2x-zero-load rule)", "< 2.5%",
              Table::num(cmp.throughputLossPct, 1) + "%"});
    s.addRow({"delivered-throughput loss at top rate", "-",
              Table::num(cmp.topRateThroughputLossPct, 1) + "%"});
    s.addRow({"max power savings", hundred ? "6.3x" : "6.4x",
              Table::num(cmp.maxSavings, 2) + "x"});
    s.addRow({"avg power savings (pre-sat)", hundred ? "4.6x" : "4.9x",
              Table::num(cmp.avgSavings, 2) + "x"});
    printTable(s, opts);
}

TrackedLink::TrackedLink(const BenchOptions &opts,
                         const std::vector<double> &rates)
{
    DVSNET_ASSERT(rates.size() >= 2, "a tracked link needs two loads");
    network::ExperimentSpec spec = paperSpec(opts);
    spec.network.policy = network::PolicyKind::None;
    points_ = runObservedPoints(
        opts, std::vector(rates.size(), spec), rates,
        [this](network::Network &net) {
            // Only valid without DVS controllers: the probes consume
            // their measurement windows.
            auto &probes = probes_.emplace_back();
            for (const auto &ch : net.topology().channels()) {
                probes.push_back(std::make_unique<core::TrafficProbe>(
                    net.kernel(), &net.channel(ch.id), &net.router(ch.src),
                    ch.srcPort, &net.router(ch.dst), ch.dstPort, 50));
                probes.back()->start();
            }
        });

    // The largest LU dip among links hot near saturation whose buffer
    // is nearly full under congestion; else the most-contended
    // downstream buffer weighted by load.
    const auto &nearSaturation = probes_[rates.size() - 2];
    const auto &congested = probes_.back();
    double bestDip = 0.0;
    double bestScore = -1.0;
    ChannelId dipLink = kInvalidId;
    for (std::size_t c = 0; c < congested.size(); ++c) {
        const double luC = nearSaturation[c]->meanLinkUtil();
        const double luD = congested[c]->meanLinkUtil();
        const double buD = congested[c]->meanBufferUtil();
        if (luC >= 0.35 && buD >= 0.5 && luC - luD > bestDip) {
            bestDip = luC - luD;
            dipLink = static_cast<ChannelId>(c);
        }
        if (luC * buD > bestScore) {
            bestScore = luC * buD;
            tracked_ = static_cast<ChannelId>(c);
        }
    }
    if (dipLink != kInvalidId)
        tracked_ = dipLink;
}

const topo::Channel &
TrackedLink::channel() const
{
    return points_.back().live->network().topology().channels().at(
        static_cast<std::size_t>(tracked_));
}

const core::TrafficProbe &
TrackedLink::probe(std::size_t load) const
{
    return *probes_.at(load).at(static_cast<std::size_t>(tracked_));
}

} // namespace dvsnet::bench
