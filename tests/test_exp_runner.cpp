/**
 * @file
 * ExperimentRunner tests: seed derivation, submission-order results,
 * dispatch in descending offered work, per-job failure isolation,
 * progress reporting, shared packet streams (one generation per set of
 * equal generator inputs, and a failed one failing only its own job),
 * and — the hard requirement — bit-identical results between serial and
 * parallel execution of the same sweep.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <set>

#include "common/fatal.hpp"
#include "counting_workload.hpp"
#include "exp/runner.hpp"
#include "exp/worker_pool.hpp"

using dvsnet::ConfigError;
using dvsnet::exp::ExperimentRunner;
using dvsnet::exp::PointJob;
using dvsnet::exp::pointSeed;
using dvsnet::exp::RunnerOptions;
using dvsnet::exp::WorkerPool;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::testutil::countingFailuresLeft;
using dvsnet::testutil::countingLog;

namespace
{

ExperimentSpec
smallSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.network.radix = 4;
    spec.network.policy = policy;
    spec.workload.avgConcurrentTasks = 10;
    spec.workload.meanTaskDurationCycles = 2e4;
    spec.workload.sourcesPerTask = 16;
    spec.workload.seed = 5;
    spec.warmup = 5000;
    spec.measure = 20000;
    return spec;
}

/** Every RunResults field, compared exactly — determinism means bits. */
void
expectIdentical(const RunResults &a, const RunResults &b)
{
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.packetsCreated, b.packetsCreated);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.flitsEjected, b.flitsEjected);
    EXPECT_EQ(a.offeredLoadPktsPerCycle, b.offeredLoadPktsPerCycle);
    EXPECT_EQ(a.throughputPktsPerCycle, b.throughputPktsPerCycle);
    EXPECT_EQ(a.throughputFlitsPerCycle, b.throughputFlitsPerCycle);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.maxLatencyCycles, b.maxLatencyCycles);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.normalizedPower, b.normalizedPower);
    EXPECT_EQ(a.savingsFactor, b.savingsFactor);
    EXPECT_EQ(a.transitionEnergyJ, b.transitionEnergyJ);
    EXPECT_EQ(a.avgChannelLevel, b.avgChannelLevel);
}


RunnerOptions
withThreads(std::size_t n)
{
    RunnerOptions opts;
    opts.threads = n;
    return opts;
}

} // namespace

TEST(PointSeed, DeterministicAndWellSpread)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t s = pointSeed(42, i);
        EXPECT_EQ(s, pointSeed(42, i));  // pure function
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u);               // no collisions
    EXPECT_NE(pointSeed(42, 0), pointSeed(43, 0));  // base matters
}

TEST(WorkerPool, ResolvesThreadCount)
{
    EXPECT_GE(dvsnet::exp::resolveThreadCount(0), 1u);
    EXPECT_EQ(dvsnet::exp::resolveThreadCount(7), 7u);
    WorkerPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
}

TEST(WorkerPool, RefusesThreadsPastTheCap)
{
    // Refused before any thread starts.
    using dvsnet::exp::kMaxThreads;
    EXPECT_EQ(dvsnet::exp::resolveThreadCount(kMaxThreads), kMaxThreads);
    EXPECT_THROW(dvsnet::exp::resolveThreadCount(kMaxThreads + 1),
                 dvsnet::ConfigError);
    EXPECT_THROW(WorkerPool{kMaxThreads + 1}, dvsnet::ConfigError);
}

TEST(WorkerPool, RunsEveryJobAndWaits)
{
    WorkerPool pool(4);
    std::mutex m;
    int done = 0;
    for (int i = 0; i < 64; ++i) {
        pool.post([&] {
            std::lock_guard<std::mutex> lock(m);
            ++done;
        });
    }
    pool.wait();
    EXPECT_EQ(done, 64);

    // The pool is reusable after a wait().
    pool.post([&] {
        std::lock_guard<std::mutex> lock(m);
        ++done;
    });
    pool.wait();
    EXPECT_EQ(done, 65);
}

TEST(Runner, SerialAndParallelSweepsBitIdentical)
{
    const auto spec = smallSpec(PolicyKind::History);
    const std::vector<double> rates{0.1, 0.2, 0.3, 0.4};

    ExperimentRunner serial(withThreads(1));
    serial.submitSweep(spec, rates);
    const auto a = serial.collect();
    ExperimentRunner parallel(withThreads(4));
    parallel.submitSweep(spec, rates);
    const auto b = parallel.collect();

    ASSERT_EQ(a.size(), rates.size());
    ASSERT_EQ(b.size(), rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        EXPECT_EQ(a[i].injectionRate, b[i].injectionRate);
        expectIdentical(a[i].results, b[i].results);
    }
}

TEST(Runner, DefaultOptionsSweepMatchesExplicitThreads)
{
    const auto spec = smallSpec(PolicyKind::None);
    const std::vector<double> rates{0.1, 0.3};

    ExperimentRunner defaultRunner;
    defaultRunner.submitSweep(spec, rates);
    const auto defaulted = defaultRunner.collect();
    ExperimentRunner parallel(withThreads(2));
    parallel.submitSweep(spec, rates);
    const auto direct = parallel.collect();

    ASSERT_EQ(defaulted.size(), direct.size());
    for (std::size_t i = 0; i < defaulted.size(); ++i) {
        ASSERT_TRUE(defaulted[i].ok) << defaulted[i].error;
        ASSERT_TRUE(direct[i].ok) << direct[i].error;
        expectIdentical(defaulted[i].results, direct[i].results);
    }
}

TEST(Runner, ResultsComeBackInSubmissionOrder)
{
    ExperimentRunner runner(withThreads(4));
    // Heavier points first: completion order will differ from
    // submission order, results must not.
    const std::vector<double> rates{0.4, 0.3, 0.2, 0.1};
    for (std::size_t i = 0; i < rates.size(); ++i) {
        PointJob job;
        job.spec = smallSpec(PolicyKind::None);
        job.injectionRate = rates[i];
        job.seed = pointSeed(5, i);
        job.label = "job" + std::to_string(i);
        runner.submit(job);
    }
    const auto results = runner.collect();
    ASSERT_EQ(results.size(), rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        EXPECT_EQ(results[i].injectionRate, rates[i]);
        EXPECT_EQ(results[i].label, "job" + std::to_string(i));
        EXPECT_TRUE(results[i].ok);
        EXPECT_GT(results[i].wallSeconds, 0.0);
    }
}

TEST(Runner, FailureIsolationCapturesBadPointOnly)
{
    ExperimentRunner runner(withThreads(2));

    PointJob good;
    good.spec = smallSpec(PolicyKind::None);
    good.injectionRate = 0.2;
    good.seed = 7;

    PointJob bad = good;
    bad.spec.network.radix = 1;        // invalid: radix < 2
    bad.spec.network.router.numVcs = 0;  // invalid: zero VCs

    PointJob badRate = good;
    badRate.injectionRate = -1.0;

    // Past one packet per node per cycle: 16 on this 4x4 mesh.  A huge
    // rate used to run without end.
    PointJob hugeRate = good;
    hugeRate.injectionRate = std::nextafter(16.0, 17.0);

    runner.submit(good);
    runner.submit(bad);
    runner.submit(badRate);
    runner.submit(hugeRate);
    const auto results = runner.collect();

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_GT(results[0].results.packetsDelivered, 0u);

    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("radix"), std::string::npos);
    EXPECT_NE(results[1].error.find("numVcs"), std::string::npos);

    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("injection rate"), std::string::npos);

    EXPECT_FALSE(results[3].ok);
    EXPECT_NE(results[3].error.find("one packet per node per cycle (16"),
              std::string::npos)
        << results[3].error;
}

TEST(Runner, EmptyRateGridThrows)
{
    ExperimentRunner runner(withThreads(1));
    EXPECT_THROW(runner.submitSweep(smallSpec(PolicyKind::None), {}),
                 ConfigError);
}

TEST(Runner, RunnerIsReusableAfterCollect)
{
    ExperimentRunner runner(withThreads(2));
    runner.submitSweep(smallSpec(PolicyKind::None), {0.1});
    const auto first = runner.collect();
    ASSERT_EQ(first.size(), 1u);

    runner.submitSweep(smallSpec(PolicyKind::None), {0.1});
    const auto second = runner.collect();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].ok);
    expectIdentical(first[0].results, second[0].results);
}

namespace
{

PointJob
countingJob(PolicyKind policy)
{
    PointJob job;
    job.spec = smallSpec(policy);
    job.spec.workloadSpec = "counting";
    job.spec.warmup = 1000;
    job.spec.measure = 2000;
    job.injectionRate = 0.6;
    job.seed = 11;
    return job;
}

std::string
resultsJson(const RunResults &results)
{
    return dvsnet::network::toJson(results).dump();
}

} // namespace

TEST(RunnerStreams, EqualGeneratorInputsShareOneGeneration)
{
    dvsnet::testutil::registerCountingWorkload();
    countingFailuresLeft = 0;

    // Three jobs the generator cannot tell apart: they differ in policy,
    // and in how the same run length splits into warm-up and window.
    std::vector<PointJob> jobs = {countingJob(PolicyKind::None),
                                  countingJob(PolicyKind::History),
                                  countingJob(PolicyKind::History)};
    jobs[2].spec.warmup = 2500;
    jobs[2].spec.measure = 500;
    const std::size_t shared = jobs.size();

    // Each of these differs from them in one input the key covers.
    std::vector<PointJob> own(8, countingJob(PolicyKind::History));
    own[0].injectionRate = 0.61;
    own[1].seed = 12;
    own[2].spec.measure = 2001;
    own[3].spec.network.radix = 5;
    own[4].spec.network.torus = true;
    own[5].spec.workloadSpec = "counting:variant=1";
    own[6].spec.workload.avgConcurrentTasks = 11;
    own[7].spec.workload.onOff.meanOnCycles = 301;
    jobs.insert(jobs.end(), own.begin(), own.end());

    std::vector<std::string> expected;
    for (const auto &job : jobs) {
        expected.push_back(resultsJson(dvsnet::exp::runPoint(
            job.spec, job.injectionRate, job.seed)));
    }

    for (const std::size_t threads : {1u, 4u}) {
        countingLog.clear();
        ExperimentRunner runner(withThreads(threads));
        for (const auto &job : jobs)
            runner.submit(job);
        const auto results = runner.collect();
        EXPECT_EQ(countingLog.size(), 1 + own.size()) << threads << " threads";
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(resultsJson(results[i].results), expected[i])
                << "job " << i << (i < shared ? " (shared)" : " (own)")
                << ", " << threads << " threads";
        }
    }
}

TEST(RunnerStreams, FailedGenerationFailsOnlyItsOwnJob)
{
    dvsnet::testutil::registerCountingWorkload();
    const PolicyKind policies[] = {PolicyKind::None, PolicyKind::History,
                                   PolicyKind::DynamicThreshold,
                                   PolicyKind::LinkUtilOnly};
    for (const std::size_t threads : {1u, 4u}) {
        std::vector<std::string> expected;
        countingFailuresLeft = 0;
        for (const PolicyKind policy : policies) {
            const PointJob job = countingJob(policy);
            expected.push_back(resultsJson(dvsnet::exp::runPoint(
                job.spec, job.injectionRate, job.seed)));
        }

        // The first generation throws; the jobs waiting on it wake, and
        // one of them generates the stream the rest then share.
        countingFailuresLeft = 1;
        countingLog.clear();
        ExperimentRunner runner(withThreads(threads));
        for (const PolicyKind policy : policies)
            runner.submit(countingJob(policy));
        const auto results = runner.collect();
        EXPECT_EQ(countingLog.size(), 2u) << threads << " threads";

        std::size_t failed = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok) {
                ++failed;
                EXPECT_NE(results[i].error.find("scripted failure"),
                          std::string::npos);
                continue;
            }
            EXPECT_EQ(resultsJson(results[i].results), expected[i])
                << "job " << i << ", " << threads << " threads";
        }
        EXPECT_EQ(failed, 1u) << threads << " threads";
    }
    countingFailuresLeft = 0;
}

TEST(Runner, DispatchesLargestOfferedWorkFirst)
{
    dvsnet::testutil::registerCountingWorkload();
    countingFailuresLeft = 0;
    using dvsnet::testutil::CountingStart;

    // Submitted in ascending rate.  Offered work is rate x (warm-up +
    // measurement): the 0.5 job runs 1,000 cycles to the others' 3,000,
    // so it offers the least, and the 0.3 and 0.6 pairs tie, differing
    // only in seed.  Every job has its own stream, so with one worker
    // each generator starts when its job is dispatched.
    const std::vector<CountingStart> submitted = {
        {0.2, 11}, {0.3, 11}, {0.3, 12}, {0.4, 11},
        {0.5, 11}, {0.6, 11}, {0.6, 13}};
    std::vector<PointJob> jobs;
    std::vector<std::string> expected;
    for (const auto &[rate, seed] : submitted) {
        PointJob job = countingJob(PolicyKind::History);
        job.injectionRate = rate;
        job.seed = seed;
        if (rate == 0.5) {
            job.spec.warmup = 500;
            job.spec.measure = 500;
        }
        expected.push_back(resultsJson(
            dvsnet::exp::runPoint(job.spec, job.injectionRate, job.seed)));
        jobs.push_back(std::move(job));
    }

    countingLog.clear();
    ExperimentRunner runner(withThreads(1));
    for (const auto &job : jobs)
        runner.submit(job);
    {
        std::lock_guard<std::mutex> lock(dvsnet::testutil::countingLogMutex);
        EXPECT_TRUE(countingLog.empty()) << "submit() started a job";
    }
    const auto results = runner.collect();

    const std::vector<CountingStart> dispatched = {
        {0.6, 11}, {0.6, 13}, {0.4, 11}, {0.3, 11},
        {0.3, 12}, {0.2, 11}, {0.5, 11}};
    EXPECT_EQ(countingLog, dispatched);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].injectionRate, jobs[i].injectionRate);
        EXPECT_EQ(results[i].seed, jobs[i].seed);
        EXPECT_EQ(resultsJson(results[i].results), expected[i])
            << "job " << i;
    }
}
