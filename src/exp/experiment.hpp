/**
 * @file
 * Experiment job/result vocabulary for the parallel ExperimentRunner.
 *
 * A sweep is a bag of independent measurement points: each point builds
 * its own Network + workload from an ExperimentSpec, so points can run
 * concurrently on a worker pool with no shared simulator state.  The
 * unit of work is a PointJob — spec + injection rate + an explicit RNG
 * seed — and the seed alone (not thread count or completion order)
 * determines the result, which is what makes a parallel sweep
 * bit-identical to a serial one.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "network/sweep.hpp"

namespace dvsnet::exp
{

class LiveNetwork;  // exp/runner.hpp

/**
 * Seed for sweep point `index` of a sweep rooted at `baseSeed`.
 *
 * splitmix64 of a golden-ratio-spaced stream: distinct indices land in
 * well-separated xoshiro seed states, and the mapping is a pure function
 * so any execution order reproduces the same per-point streams.
 */
std::uint64_t pointSeed(std::uint64_t baseSeed, std::uint64_t index);

/**
 * Seed for a stream identified by a *name* rather than a position:
 * pointSeed over an FNV-1a hash of `key`.  Used by drivers whose work
 * set can grow or reorder between runs, so a seed never depends on when
 * or where in the schedule it is drawn.  The Pareto search derives every
 * evaluation's traffic seed from the master seed and "traffic" alone
 * (common random numbers: every candidate replays one traffic
 * realization), and its candidate sampler's from "candidate-set".
 */
std::uint64_t pointSeed(std::uint64_t baseSeed, const std::string &key);

/** One unit of work: a fully specified measurement point. */
struct PointJob
{
    network::ExperimentSpec spec;
    double injectionRate = 1.0;  ///< offered packets/cycle (target)
    std::uint64_t seed = 12345;  ///< workload RNG seed for this point
    std::string label;           ///< optional tag echoed in the result

    /**
     * Cycles the job's packet stream covers; 0 = the run's end.  Jobs
     * whose runs differ only in length share one stream when they name
     * one horizon, and the runner keeps that stream until it is
     * destroyed, for jobs submitted after a collect() too.
     */
    Cycle horizon = 0;

    /**
     * A network an earlier job of this point kept, or one the caller
     * built for this job to observe (LiveNetwork::network()) and has not
     * run: the job runs it on to its end and collects it, instead of
     * building one from cycle 0.  The job fails unless it is that point
     * measured for longer.
     */
    std::shared_ptr<LiveNetwork> resume;

    /** Hand the network on in PointResult::live once collected. */
    bool keep = false;
};

/** Outcome of one PointJob, successful or not. */
struct PointResult
{
    double injectionRate = 0.0;
    std::uint64_t seed = 0;
    std::string label;

    bool ok = false;
    std::string error;       ///< set when !ok; the point's exception text
    double wallSeconds = 0;  ///< wall-clock time spent executing the job

    network::RunResults results;  ///< valid only when ok

    /** The job's network when PointJob::keep asked for it and ok. */
    std::shared_ptr<LiveNetwork> live;

    /** View as a sweep sample (rate + results). */
    network::SweepPoint toSweepPoint() const
    {
        return {injectionRate, results};
    }
};

/**
 * Artifact entry for one executed point: rate, seed, label, wall-clock,
 * and either the results object (ok) or the error string.
 */
Json toJson(const PointResult &result);

/** Options for ExperimentRunner. */
struct RunnerOptions
{
    /** Worker threads; 0 = one per available hardware thread. */
    std::size_t threads = 0;
};

/**
 * Execute one measurement point with an explicit workload seed.  An
 * open-loop workload (wantsDeliveries() false) is recorded first, with
 * its generator running alone (traffic::PacketStream::record), and the
 * network then pulls that stream (Network::attachStream); a closed-loop
 * one runs live.  Either way the result is bit-identical to attaching
 * the generator to the network.  ExperimentRunner does the same, but
 * records each stream once for all its jobs with equal generator
 * inputs.  Throws ConfigError on an invalid spec or rate.
 */
network::RunResults runPoint(const network::ExperimentSpec &spec,
                             double injectionRate, std::uint64_t seed);

} // namespace dvsnet::exp
