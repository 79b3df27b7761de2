#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "bench_util.hpp"
#include "exp/runner.hpp"
#include "search/cache.hpp"
#include "search_cli.hpp"
#include "traced.hpp"

namespace perfbench
{

using namespace dvsnet;

namespace
{

/** Warm-up and measurement windows of every point of a workload. */
struct Fidelity
{
    Cycle warmup;
    Cycle measure;
};

// Windows are far below the paper's 120k + 150k cycles so that one round
// takes seconds and a run can repeat it and report medians.  The DVS levels
// are still in their warm-up transient at these lengths, so the model
// metrics pin what is simulated rather than reproduce the paper.
constexpr Fidelity kFig10{10000, 5000};
constexpr Fidelity kUniform{10000, 10000};
constexpr Fidelity kSearch{4000, 3000};
constexpr Fidelity kTiny{2000, 2000};

/**
 * Reference corner of model.hypervolume, shared by every workload: beyond
 * any point's latency, and above the 8x8 paper network's power with every
 * link at its fastest level (~358 W), so every point lies inside the box.
 */
constexpr double kHvRefLatency = 1000.0;
constexpr double kHvRefPower = 400.0;

/** Offered load of saturated-uniform, packets/node/cycle. */
constexpr double kUniformNodeRate = 0.07;
constexpr std::size_t kUniformPoints = 8;

bench::BenchOptions
benchOptions(const Fidelity &f, std::uint64_t seed, bool tiny,
             std::vector<std::string> extra = {})
{
    std::vector<std::string> args = {
        "perfbench",
        "warmup=" + std::to_string(f.warmup),
        "cycles=" + std::to_string(f.measure),
        "seed=" + std::to_string(seed),
        "points=" + std::to_string(tiny ? 3 : 8),
    };
    if (tiny) {
        args.push_back("tasks=12");
        args.push_back("sources=16");
    }
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return bench::parseOptions(static_cast<int>(argv.size()), argv.data());
}

Workload
fig10Sweep(std::uint64_t seed, bool tiny)
{
    const auto opts = benchOptions(tiny ? kTiny : kFig10, seed, tiny);
    network::ExperimentSpec base = bench::paperSpec(opts);
    base.network.policy = network::PolicyKind::None;
    network::ExperimentSpec dvs = base;
    dvs.network.policy = network::PolicyKind::History;

    // Submission order and seeds of bench::runDvsComparison: zero-load
    // probes on the base seed, then sweep point i on pointSeed(seed, i).
    Workload w;
    w.name = "fig10-sweep";
    for (const auto *spec : {&base, &dvs}) {
        exp::PointJob job;
        job.spec = *spec;
        job.injectionRate = 0.05;
        job.seed = spec->workload.seed;
        job.label = spec == &base ? "zero-load-base" : "zero-load-dvs";
        w.jobs.push_back(std::move(job));
    }
    const auto rates = bench::defaultRates(opts);
    for (const auto *spec : {&base, &dvs}) {
        for (std::size_t i = 0; i < rates.size(); ++i) {
            exp::PointJob job;
            job.spec = *spec;
            job.injectionRate = rates[i];
            job.seed = exp::pointSeed(spec->workload.seed, i);
            job.label = spec == &base ? "no-dvs" : "history-dvs";
            w.jobs.push_back(std::move(job));
        }
    }
    return w;
}

Workload
saturatedUniform(std::uint64_t seed, bool tiny)
{
    const Fidelity f = tiny ? kTiny : kUniform;
    network::ExperimentSpec spec;  // 8x8 mesh, History-DVS defaults
    spec.network.policy = network::PolicyKind::History;
    spec.workloadSpec = "uniform";
    spec.workload.seed = seed;
    spec.warmup = f.warmup;
    spec.measure = f.measure;
    const double rate = kUniformNodeRate * spec.network.radix *
                        spec.network.radix;

    Workload w;
    w.name = "saturated-uniform";
    const std::size_t points = tiny ? 4 : kUniformPoints;
    for (std::size_t i = 0; i < points; ++i) {
        exp::PointJob job;
        job.spec = spec;
        job.injectionRate = rate;
        job.seed = exp::pointSeed(seed, i);
        job.label = "history-dvs";
        w.jobs.push_back(std::move(job));
    }
    return w;
}

Workload
paretoSearch(std::uint64_t seed, bool tiny)
{
    const auto opts = benchOptions(
        tiny ? kTiny : kSearch, seed, tiny,
        {"search=successive-halving:candidates=4,rungs=2,slack=1"});
    Workload w;
    w.name = "pareto-search";
    w.search = bench::searchConfigFromOptions(opts);
    w.grid = bench::fig15GridCandidates();
    return w;
}

Point
searchPoint(const search::SearchDriver &driver, const search::EvalRecord &rec,
            const std::string &label)
{
    Point p;
    p.job.spec = driver.specFor(search::Candidate::fromJson(rec.params),
                                driver.config().rungs.at(rec.rung));
    p.job.injectionRate = rec.rate;
    p.job.seed = rec.seed;
    p.job.label = label;
    p.ok = true;
    p.results = rec.results;
    return p;
}

Round
runSearchRound(const Workload &w, std::size_t threads, SpanLog *log,
               std::uint64_t parent)
{
    Round r;
    r.searched = true;
    CounterRegistry registry;
    search::SearchConfig config = *w.search;
    config.threads = threads;

    ScopedSpan round(log, "round", parent);
    std::optional<search::SearchDriver> driver;
    {
        ScopedSpan s(log, "search.construct", round.id());
        driver.emplace(config, &registry);
    }
    {
        ScopedSpan s(log, "search.run", round.id());
        r.outcome = driver->run();
        r.searchRunSeconds += s.seconds();
    }

    std::vector<network::RunResults> digestOrder;
    for (const auto &rec : r.outcome.journal) {
        r.points.push_back(
            searchPoint(*driver, rec, "rung" + std::to_string(rec.rung)));
        digestOrder.push_back(rec.results);
    }
    {
        ScopedSpan grid(log, "search.grid", round.id());
        for (const auto &candidate : w.grid) {
            const auto before = registry.counterValue("search.network_evals");
            ScopedSpan s(log, "search.evaluate_full", grid.id());
            const auto rec = driver->evaluateFull(candidate);
            if (registry.counterValue("search.network_evals") != before)
                r.points.push_back(searchPoint(*driver, rec, "grid"));
            digestOrder.push_back(rec.results);
        }
        r.searchRunSeconds += grid.seconds();
    }
    r.wallSeconds = round.seconds();

    for (const char *name :
         {"search.network_evals", "search.network_evals_full",
          "search.cache_hits", "search.culled"})
        r.searchCounters[name] = registry.counterValue(name);
    for (const auto &p : r.points)
        r.searchSimCycles += pointCycles(p.job);
    r.digest = resultsDigest(digestOrder);
    return r;
}

} // namespace

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    if (name == "fig10-sweep")
        return fig10Sweep(seed, tiny);
    if (name == "saturated-uniform")
        return saturatedUniform(seed, tiny);
    if (name == "pareto-search")
        return paretoSearch(seed, tiny);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<exp::PointJob>
setupJobs(const Workload &w)
{
    if (!w.search)
        return w.jobs;
    const search::SearchDriver driver(*w.search);
    std::vector<exp::PointJob> jobs;
    for (const auto &c : search::SearchDriver::candidateSet(*w.search)) {
        exp::PointJob job;
        job.spec = driver.specFor(c, w.search->rungs.front());
        job.injectionRate = w.search->injectionRate;
        job.seed = driver.seedFor(c, 0);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<Point>
runPoints(const std::vector<exp::PointJob> &jobs, std::size_t threads)
{
    exp::RunnerOptions options;
    options.threads = threads;
    exp::ExperimentRunner runner(std::move(options));
    for (const auto &job : jobs)
        runner.submit(job);
    const auto results = runner.collect();

    std::vector<Point> points(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        points[i].job = jobs[i];
        points[i].ok = results[i].ok;
        points[i].error = results[i].error;
        points[i].wallSeconds = results[i].wallSeconds;
        points[i].results = results[i].results;
    }
    return points;
}

Round
runRound(const Workload &w, std::size_t threads, SpanLog *log,
         std::uint64_t parent)
{
    if (w.search)
        return runSearchRound(w, threads, log, parent);

    Round r;
    const auto start = std::chrono::steady_clock::now();
    r.points = runPoints(w.jobs, threads);
    r.wallSeconds = secondsSince(start);

    std::vector<network::RunResults> results;
    for (const auto &p : r.points)
        results.push_back(p.results);
    r.digest = resultsDigest(results);
    return r;
}

ModelMetrics
modelMetrics(const Workload &w, const Round &round)
{
    const std::string lastRung =
        w.search ? "rung" + std::to_string(w.search->rungs.size() - 1) : "";
    std::vector<const Point *> dvs;
    std::vector<const Point *> base;
    for (const auto &p : round.points) {
        if (w.search ? (p.job.label == lastRung || p.job.label == "grid")
                     : p.job.label == "history-dvs")
            dvs.push_back(&p);
        else if (p.job.label == "no-dvs")
            base.push_back(&p);
    }

    ModelMetrics m;
    search::ParetoFront front(2);
    for (std::size_t i = 0; i < dvs.size(); ++i) {
        const auto &res = dvs[i]->results;
        m.savingsX += res.savingsFactor / static_cast<double>(dvs.size());
        m.throughputFlits +=
            res.throughputFlitsPerCycle / static_cast<double>(dvs.size());
        front.insert({{res.avgLatencyCycles, res.avgPowerW},
                      std::to_string(i),
                      {}});
    }
    // The search's own front (last-rung evaluations) where there is one.
    const auto &hvFront = w.search ? round.outcome.front : front;
    m.hypervolume = hvFront.hypervolume2d(kHvRefLatency, kHvRefPower);

    std::vector<double> ratios;
    for (std::size_t i = 0; i < base.size() && i < dvs.size(); ++i) {
        ratios.push_back(dvs[i]->results.avgLatencyCycles /
                         base[i]->results.avgLatencyCycles);
    }
    m.latencyRatio = median(ratios);
    return m;
}

std::string
canonicalResults(const network::RunResults &results)
{
    return search::canonicalJson(network::toJson(results)).dump();
}

std::string
resultsDigest(const std::vector<network::RunResults> &results)
{
    std::string text;
    for (const auto &r : results) {
        text += canonicalResults(r);
        text += '\n';
    }
    return search::hashKey(text);
}

std::uint64_t
pointCycles(const exp::PointJob &job)
{
    return job.spec.warmup + job.spec.measure;
}

} // namespace perfbench
