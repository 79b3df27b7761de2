/**
 * @file
 * ExperimentRunner: multi-threaded, deterministic experiment execution.
 *
 * Replaces the serial free-function sweep driver.  Callers submit
 * PointJobs (or whole injection sweeps), which only queues them;
 * collect() hands the batch to a fixed-size worker pool, largest offered
 * work first, with each Network/Kernel touched by one worker at a time,
 * and returns results in submission order.  Guarantees:
 *
 *  - **Determinism**: every job carries an explicit seed (sweeps derive
 *    theirs as pointSeed(baseSeed, pointIndex)), so results are
 *    bit-identical for any thread count, including 1.
 *  - **Failure isolation**: an exception inside one point (e.g. a
 *    ConfigError from Network's validation) is captured into that
 *    point's PointResult::error; the other points still run.
 *  - **Timing**: each result records its wall-clock cost.
 *  - **Dispatch order**: collect() posts the batch to the FIFO pool in
 *    descending offered work, injectionRate x (warmup + measure), ties
 *    in submission order (longest processing time first, so the
 *    heaviest points of a sweep do not start last and trail the batch).
 *    Results do not depend on the order.
 *  - **Shared traffic**: jobs whose traffic generators read equal inputs
 *    (workload spec and parameter block, topology, rate, seed and run
 *    length; not policy, routing or any other network field) share one
 *    recorded packet stream, recorded once per batch: every job of a
 *    batch is counted before any of them runs.  The first of them to
 *    run records it, and hands it to the others as soon as its
 *    generator has started: they run their networks from it while it
 *    records, paced by the recorder (traffic::PacketStream), and the
 *    recorder runs its own network once the recording is done.  The
 *    stream is freed when the last of them finishes, or with the runner
 *    when they name a horizon (PointJob::horizon).  A recording that
 *    fails before its generator starts wakes the waiters, and the next
 *    one retries; one that fails later fails every job reading it with
 *    the recorder's error.  Either way every job's result is what
 *    exp::runPoint gives it.
 *  - **Continuation**: a job can keep its network (PointJob::keep) and
 *    a later job of the same point, measured for longer, runs it on
 *    (PointJob::resume) instead of simulating the shared prefix again;
 *    its result is still exp::runPoint's (LiveNetwork).
 *
 * Typical use:
 *
 *     exp::RunnerOptions opts;
 *     opts.threads = 4;                          // 0 = all hw threads
 *     exp::ExperimentRunner runner(opts);
 *     runner.submitSweep(spec, rates);           // queued, seeds derived
 *     auto results = runner.collect();           // runs; submission order
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "network/network.hpp"
#include "traffic/stream.hpp"

namespace dvsnet::exp
{

/**
 * A point's network with the stream or generator that feeds it.  Every
 * job runs one (runOn); a job with PointJob::keep hands it on, and a
 * later job of the same point with a longer measurement runs it on
 * from where it stopped (PointJob::resume) instead of from cycle 0.
 * Under one stream the rest of that run is what a run from cycle 0
 * simulates, and Network::collect() is repeatable, so each result is
 * exp::runPoint's bit for bit.  A kept network crosses workers only
 * through the runner: collect() hands it out after the pool's wait(),
 * submit() takes it back and the next collect() posts it, so one thread
 * at a time touches it.
 */
class LiveNetwork
{
  public:
    /** Build `job`'s network, fed by `stream` or, when it is null, by a
     *  live generator.  Nothing runs yet. */
    LiveNetwork(const PointJob &job,
                std::shared_ptr<const traffic::PacketStream> stream);

    /** The network's events hold its address. */
    LiveNetwork(const LiveNetwork &) = delete;
    LiveNetwork &operator=(const LiveNetwork &) = delete;

    /**
     * Run on to the end of `job`'s measurement, through its warm-up
     * first when nothing has run yet, and collect.
     * @throws ConfigError unless continues(job)
     */
    network::RunResults runOn(const PointJob &job);

    /** The point's network: probes attached before it runs see the
     *  whole run, and its state reads as the run left it after
     *  runOn(). */
    network::Network &network() { return network_; }

  private:
    /** Whether `job` is this point (equal spec, rate and seed) measured
     *  for longer than the run has been. */
    bool continues(const PointJob &job) const;

    network::ExperimentSpec spec_;  ///< measure: cycles measured so far
    double injectionRate_;
    std::uint64_t seed_;
    std::shared_ptr<const traffic::PacketStream> stream_;  ///< or null
    network::Network network_;
    std::unique_ptr<traffic::TrafficGenerator> generator_;  ///< live only
};

/** Multi-threaded experiment executor (see file comment). */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});

    /** Joins workers; jobs submitted but not collected never run. */
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /** Worker threads actually running. */
    std::size_t threadCount() const { return pool_.threadCount(); }

    /**
     * Queue one job for the next collect(); nothing runs yet.  Returns
     * its index in collect() order.
     */
    std::size_t submit(PointJob job);

    /**
     * Queue one job per rate, seeded pointSeed(spec.workload.seed, i)
     * with `i` counting from 0 within this sweep.  Returns the index of
     * the sweep's first job; the sweep occupies rates.size() consecutive
     * collect() slots.  Throws ConfigError on an empty rate grid.
     */
    std::size_t submitSweep(const network::ExperimentSpec &spec,
                            const std::vector<double> &rates);

    /**
     * Run every job submitted since the last collect(), largest offered
     * work first (see file comment), block until all have finished,
     * then return their results in submission order and reset for
     * reuse.
     */
    std::vector<PointResult> collect();

  private:
    /** A submitted job waiting for collect(), with its stream key. */
    struct Pending
    {
        PointJob job;
        std::string key;
    };

    /** One packet stream and the submitted jobs that read it. */
    struct SharedStream
    {
        /** Null when ready for a closed-loop workload: it runs live. */
        std::shared_ptr<const traffic::PacketStream> stream;
        bool ready = false;      ///< shared: its generator has started
        bool producing = false;  ///< a job is starting its generator
        std::size_t consumers = 0;  ///< submitted jobs not yet finished
    };

    void execute(std::size_t index, const PointJob &job,
                 const std::string &key);

    /**
     * The job's stream: recorded here, or by another job, and possibly
     * still recording.
     */
    std::shared_ptr<const traffic::PacketStream>
    acquireStream(const std::string &key, const PointJob &job);

    RunnerOptions options_;
    std::mutex mutex_;  ///< guards pending_, results_, streams_
    std::vector<Pending> pending_;  ///< by index, until collect()
    std::vector<PointResult> results_;  ///< the batch collect() runs
    std::unordered_map<std::string, SharedStream> streams_;  ///< by key
    std::condition_variable streamReady_;
    WorkerPool pool_;  ///< last member: workers stop before state dies
};

} // namespace dvsnet::exp
