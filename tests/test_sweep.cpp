/**
 * @file
 * Experiment-driver tests: rate grids, saturation detection on synthetic
 * series, and the paper-summary comparison math.  End-to-end sweeps use
 * a small 4x4 network to stay fast.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/fatal.hpp"
#include "exp/runner.hpp"
#include "network/sweep.hpp"

using dvsnet::network::DvsComparison;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::network::SweepPoint;
using dvsnet::exp::ExperimentRunner;
using dvsnet::network::compareDvs;
using dvsnet::network::rateGrid;
using dvsnet::network::saturationThroughput;

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

SweepPoint
point(double rate, double latency, double throughput)
{
    SweepPoint p;
    p.injectionRate = rate;
    p.results.avgLatencyCycles = latency;
    p.results.throughputPktsPerCycle = throughput;
    p.results.savingsFactor = 2.0;
    return p;
}

} // namespace

TEST(RateGrid, EvenlySpacedInclusive)
{
    const auto rates = rateGrid(0.5, 2.0, 4);
    ASSERT_EQ(rates.size(), 4u);
    EXPECT_DOUBLE_EQ(rates[0], 0.5);
    EXPECT_DOUBLE_EQ(rates[1], 1.0);
    EXPECT_DOUBLE_EQ(rates[2], 1.5);
    EXPECT_DOUBLE_EQ(rates[3], 2.0);
}

TEST(RateGrid, RefusesPointsPastTheCap)
{
    using dvsnet::network::kMaxSweepPoints;
    EXPECT_EQ(rateGrid(0.5, 2.0, kMaxSweepPoints).size(), kMaxSweepPoints);
    try {
        rateGrid(0.5, 2.0, kMaxSweepPoints + 1);
        FAIL() << "a grid past the cap was built";
    } catch (const dvsnet::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("points 10001 exceed the cap"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Saturation, FindsCrossingByInterpolation)
{
    // Zero-load 50 -> limit 100; crossing between the 2nd and 3rd point.
    std::vector<SweepPoint> series{point(0.5, 60, 0.5), point(1.0, 80, 1.0),
                                   point(1.5, 160, 1.2)};
    const double sat = saturationThroughput(series, 50.0);
    // t = (100-80)/(160-80) = 0.25 -> 1.0 + 0.25*(1.2-1.0) = 1.05.
    EXPECT_NEAR(sat, 1.05, 1e-9);
}

TEST(Saturation, NeverSaturatedReturnsLastThroughput)
{
    std::vector<SweepPoint> series{point(0.5, 60, 0.5),
                                   point(1.0, 70, 1.0)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.0);
}

TEST(Saturation, ImmediateSaturationReturnsFirstThroughput)
{
    std::vector<SweepPoint> series{point(0.5, 200, 0.4),
                                   point(1.0, 400, 0.5)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 0.4);
}

TEST(Saturation, ExactlyTwiceZeroLoadDoesNotCountAsSaturated)
{
    // The paper's rule is "worsens to MORE than twice" — a point sitting
    // exactly on the limit is still pre-saturation.
    std::vector<SweepPoint> series{point(0.5, 100, 0.5),
                                   point(1.0, 100, 1.0)};
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0), 1.0);
}

TEST(Saturation, SinglePointSeries)
{
    // Unsaturated single point: its own throughput.
    std::vector<SweepPoint> calm{point(0.5, 60, 0.5)};
    EXPECT_DOUBLE_EQ(saturationThroughput(calm, 50.0), 0.5);
    // Saturated single point: no bracket to interpolate, same answer.
    std::vector<SweepPoint> hot{point(0.5, 500, 0.3)};
    EXPECT_DOUBLE_EQ(saturationThroughput(hot, 50.0), 0.3);
}

TEST(Saturation, BracketInterpolationIsLocal)
{
    // Only the bracketing pair matters: moving later points must not
    // change the interpolated crossing.
    std::vector<SweepPoint> series{point(0.5, 60, 0.5),
                                   point(1.0, 80, 1.0),
                                   point(1.5, 160, 1.2),
                                   point(2.0, 900, 0.9)};
    std::vector<SweepPoint> tailChanged = series;
    tailChanged[3] = point(2.0, 300, 1.4);
    EXPECT_DOUBLE_EQ(saturationThroughput(series, 50.0),
                     saturationThroughput(tailChanged, 50.0));
    EXPECT_NEAR(saturationThroughput(series, 50.0), 1.05, 1e-9);
}

TEST(CompareDvs, SummaryMath)
{
    std::vector<SweepPoint> base{point(0.5, 60, 0.5), point(1.0, 70, 1.0),
                                 point(1.5, 300, 1.1)};
    std::vector<SweepPoint> dvs{point(0.5, 66, 0.5), point(1.0, 84, 0.98),
                                point(1.5, 400, 1.05)};
    const DvsComparison cmp = compareDvs(base, dvs, 50.0, 55.0);
    EXPECT_NEAR(cmp.zeroLoadIncreasePct, 10.0, 1e-9);
    // Pre-saturation points: the first two (300 > 2*50).
    EXPECT_NEAR(cmp.preSatLatencyIncreasePct,
                ((66.0 / 60 + 84.0 / 70) / 2 - 1) * 100, 1e-9);
    EXPECT_NEAR(cmp.avgSavings, 2.0, 1e-9);
    EXPECT_NEAR(cmp.maxSavings, 2.0, 1e-9);
    EXPECT_GT(cmp.saturationBase, 0.0);
}

TEST(SweepEndToEnd, RunPointProducesTraffic)
{
    const auto spec = smallSpec(PolicyKind::None);
    const RunResults res =
        dvsnet::exp::runPoint(spec, 0.2, spec.workload.seed);
    EXPECT_GT(res.packetsDelivered, 500u);
    EXPECT_GT(res.avgLatencyCycles, 10.0);
    EXPECT_NEAR(res.normalizedPower, 1.0, 1e-9);
}

TEST(SweepEndToEnd, PointsAreIndependentAndMonotoneInLoad)
{
    ExperimentRunner runner;
    runner.submitSweep(smallSpec(PolicyKind::None), {0.1, 0.4});
    const auto series = runner.collect();
    ASSERT_EQ(series.size(), 2u);
    ASSERT_TRUE(series[0].ok && series[1].ok);
    EXPECT_LT(series[0].results.throughputPktsPerCycle,
              series[1].results.throughputPktsPerCycle);
}

TEST(SweepEndToEnd, DvsPolicySavesPowerOnSweep)
{
    auto spec = smallSpec(PolicyKind::History);
    spec.warmup = 60000;  // let the levels settle
    ExperimentRunner runner;
    runner.submitSweep(spec, {0.1});
    const auto series = runner.collect();
    ASSERT_EQ(series.size(), 1u);
    ASSERT_TRUE(series[0].ok) << series[0].error;
    EXPECT_GT(series[0].results.savingsFactor, 1.5);
}

TEST(SweepEndToEnd, ZeroLoadLatencyIsReasonable)
{
    // The zero-load probe bench::runDvsComparison runs: low enough that
    // queueing is negligible, high enough that the window still sees a
    // few hundred packets.
    const auto spec = smallSpec(PolicyKind::None);
    const RunResults res =
        dvsnet::exp::runPoint(spec, 0.05, spec.workload.seed);
    ASSERT_GT(res.packetsDelivered, 0u);
    EXPECT_GT(res.avgLatencyCycles, 20.0);
    EXPECT_LT(res.avgLatencyCycles, 120.0);
}
