/**
 * @file
 * The benchmark's three workloads and their untraced execution.
 *
 *  - fig10-sweep: the paper's Fig. 10 experiment (bench::paperSpec, 8x8
 *    mesh, two-level self-similar traffic) as matched no-DVS and
 *    History-DVS sweeps plus zero-load probes on one ExperimentRunner.
 *  - saturated-uniform: uniform random traffic just below saturation on
 *    an 8x8 History-DVS mesh, several independently seeded points.
 *  - pareto-search: a successive-halving SearchDriver run followed by the
 *    Fig. 15 grid through evaluateFull (mostly eval-cache hits).
 *
 * Every input derives from the workload seed.  Fidelity (cycle windows,
 * rate grid size) is fixed per workload so a run fits the benchmark's
 * time budget; `tiny` shrinks everything for the self-test.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "search/driver.hpp"

namespace perfbench
{

class SpanLog;

/** A workload: the inputs one round simulates. */
struct Workload
{
    std::string name;

    /** Point-list workloads: every job of one round, submission order. */
    std::vector<dvsnet::exp::PointJob> jobs;

    /** pareto-search: the search and the grid evaluated after it. */
    std::optional<dvsnet::search::SearchConfig> search;
    std::vector<dvsnet::search::Candidate> grid;
};

/** Build a workload's inputs from its seed.  Throws on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed, bool tiny);

/**
 * Jobs whose set-up (Network + workload + attach) setup_s times: the
 * round's jobs, or every search candidate at the first rung.
 */
std::vector<dvsnet::exp::PointJob> setupJobs(const Workload &workload);

/** One simulated network evaluation. */
struct Point
{
    dvsnet::exp::PointJob job;
    bool ok = false;
    std::string error;
    double wallSeconds = 0.0;  ///< 0 when the evaluation ran inside a search
    dvsnet::network::RunResults results;
};

/** Outcome of one untraced round. */
struct Round
{
    double wallSeconds = 0.0;

    /** Every network evaluation the round ran, in submission order. */
    std::vector<Point> points;

    /** FNV-1a of the canonical RunResults JSON of every result. */
    std::string digest;

    // pareto-search only.
    bool searched = false;
    dvsnet::search::SearchOutcome outcome;
    std::map<std::string, std::uint64_t> searchCounters;
    double searchRunSeconds = 0.0;  ///< driver.run() + the grid
    std::uint64_t searchSimCycles = 0;
};

/**
 * Run one round untraced: the point jobs on one ExperimentRunner, or the
 * search and grid.  With `log`, spans are recorded under `parent` around
 * the benchmark's calls into the search (the point-list rounds are traced
 * separately).
 */
Round runRound(const Workload &workload, std::size_t threads,
               SpanLog *log = nullptr, std::uint64_t parent = 0);

/** Run `jobs` on one ExperimentRunner; results in submission order. */
std::vector<Point> runPoints(const std::vector<dvsnet::exp::PointJob> &jobs,
                             std::size_t threads);

/** Deterministic model metrics of a round (NaN where undefined). */
struct ModelMetrics
{
    double savingsX = 0.0;
    double throughputFlits = 0.0;
    double hypervolume = 0.0;
    double latencyRatio = 0.0;
};

ModelMetrics modelMetrics(const Workload &workload, const Round &round);

/** FNV-1a digest over the canonical JSON of each result, in order. */
std::string resultsDigest(const std::vector<dvsnet::network::RunResults> &r);

/** Canonical JSON text of one RunResults (the bit-identity comparison). */
std::string canonicalResults(const dvsnet::network::RunResults &results);

/** Simulated router cycles of one point (warm-up + measurement). */
std::uint64_t pointCycles(const dvsnet::exp::PointJob &job);

double secondsSince(std::chrono::steady_clock::time_point start);

/** Median of `values`; NaN when empty. */
double median(std::vector<double> values);

} // namespace perfbench
