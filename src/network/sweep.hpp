/**
 * @file
 * Experiment vocabulary + sweep analysis: the ExperimentSpec describing
 * one network/workload/window combination, and the paper's summary
 * metrics derived from a finished sweep (zero-load latency, saturation
 * throughput — "where average packet latency worsens to more than twice
 * the zero-load latency" — pre-saturation latency penalty, and
 * power-saving factors).
 *
 * Execution lives in `exp/runner.hpp`: the multi-threaded
 * ExperimentRunner runs PointJobs (spec + rate + derived seed) on a
 * worker pool with deterministic, submission-ordered results.  Use
 * exp::runPoint for a single point and ExperimentRunner::submitSweep
 * then collect() for a series.
 */

#pragma once

#include <string>
#include <vector>

#include "network/network.hpp"
#include "traffic/task_model.hpp"

namespace dvsnet::network
{

/** A complete experiment description. */
struct ExperimentSpec
{
    NetworkConfig network;
    traffic::TwoLevelParams workload;  ///< injection rate set per point

    /**
     * Workload selector, `<name>[:key=val,...]` against the
     * workload::workloadRegistry() ("two-level", "uniform",
     * "cmp:window=8", "trace:path=FILE", ...).  The default reproduces
     * the paper's two-level model configured by `workload` above.
     */
    std::string workloadSpec = "two-level";

    Cycle warmup = 20000;
    Cycle measure = 150000;

    /**
     * Check the whole experiment (network config + workload + windows)
     * for nonsense.  Returns one problem description per violation;
     * empty means valid.  exp::runPoint calls this before building the
     * network so a bad spec becomes a captured per-job error rather
     * than a crash.
     */
    std::vector<std::string> validate() const;
};

/** One sweep sample. */
struct SweepPoint
{
    double injectionRate = 0.0;  ///< offered packets/cycle (target)
    RunResults results;
};

/** Full experiment echo: network config, workload and windows. */
Json toJson(const ExperimentSpec &spec);

/** {"injection_rate": r, "results": {...}} */
Json toJson(const SweepPoint &point);

/**
 * The least injection rate, in packets/cycle, a command-line rate key
 * takes: positive, as every traffic generator requires, and far below
 * the 0.05 zero-load probe, the lightest load any bench runs.
 */
inline constexpr double kMinInjectionRate = 1e-6;

/**
 * The greatest injection rate, in packets/cycle, `network` takes: one
 * packet per node per cycle, radix^dims.  A rate past it offers more
 * than the sources can inject, so a run's source queues grow without
 * bound and its generator makes more packets a cycle than the network
 * drains.
 */
double maxInjectionRate(const NetworkConfig &network);

/**
 * Why `rate` cannot drive `network`: not positive, not finite, or above
 * maxInjectionRate(network).  Empty when it can.
 */
std::string injectionRateProblem(const NetworkConfig &network, double rate);

/** Most points one sweep's rate grid holds (the `points` cap). */
inline constexpr std::size_t kMaxSweepPoints = 10000;

/**
 * Evenly spaced rate grid [lo, hi] with n points.
 * @throws ConfigError when n exceeds kMaxSweepPoints.
 */
std::vector<double> rateGrid(double lo, double hi, std::size_t n);

/**
 * Saturation throughput from a sweep: delivered throughput at the first
 * point whose latency exceeds 2x the zero-load latency (interpolated
 * between brackets); returns the last point's throughput if the sweep
 * never saturates.
 */
double saturationThroughput(const std::vector<SweepPoint> &series,
                            double zeroLoadLatency);

/** Paper-style DVS vs no-DVS comparison summary. */
struct DvsComparison
{
    double zeroLoadBase = 0.0;
    double zeroLoadDvs = 0.0;
    double zeroLoadIncreasePct = 0.0;

    /** Mean DVS/base latency ratio over points where the *baseline* is
     *  below its saturation ("average latency before congestion"). */
    double preSatLatencyIncreasePct = 0.0;

    double saturationBase = 0.0;   ///< packets/cycle, paper's 2x rule
    double saturationDvs = 0.0;    ///< same rule on the DVS curve
    double throughputLossPct = 0.0;  ///< from the saturation pair

    /** Delivered-throughput loss at the top swept rate — robust when
     *  the paper's 2x-zero-load rule triggers on latency offset rather
     *  than on congestion. */
    double topRateThroughputLossPct = 0.0;

    double maxSavings = 0.0;       ///< peak power-saving factor ("up to X")
    double avgSavings = 0.0;       ///< mean over pre-sat points
};

/**
 * Summarize matched sweeps (same rate grid) of a no-DVS baseline and a
 * DVS policy, as reported in Section 4.4.1.
 */
DvsComparison compareDvs(const std::vector<SweepPoint> &baseline,
                         const std::vector<SweepPoint> &dvs,
                         double zeroLoadBase, double zeroLoadDvs);

} // namespace dvsnet::network
