/**
 * @file
 * Statistics primitives: Welford accumulator, histogram binning, the
 * paper's Eq. 5 EWMA (including its shift-and-add W=3 form), and the
 * time-weighted integrator behind the BU measure and the energy ledger.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

using dvsnet::Ewma;
using dvsnet::Histogram;
using dvsnet::RunningStat;
using dvsnet::TimeWeightedAverage;

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BinsCoverRangeEvenly)
{
    Histogram h(0.0, 1.0, 10);
    EXPECT_EQ(h.bins(), 10u);
    EXPECT_DOUBLE_EQ(h.binLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.05);
    EXPECT_DOUBLE_EQ(h.binLow(9), 0.9);
}

TEST(Histogram, SamplesLandInCorrectBins)
{
    Histogram h(0.0, 1.0, 10);
    h.add(0.05);
    h.add(0.15);
    h.add(0.15);
    h.add(0.95);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(5.0);
    h.add(1.0);  // exactly hi clamps into the top bin
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(3), 2u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, FractionsSumToOne)
{
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 100; ++i)
        h.add(i * 0.1);
    double sum = 0.0;
    for (std::size_t b = 0; b < h.bins(); ++b)
        sum += h.binFraction(b);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, MeanIsExactNotBinned)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.1);
    h.add(0.2);
    EXPECT_NEAR(h.mean(), 0.15, 1e-12);
}

TEST(Histogram, RenderProducesOneLinePerBin)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.5);
    const std::string out = h.render();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Histogram, ResetClearsCounts)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.binCount(2), 0u);
}

TEST(Ewma, MatchesEquationFive)
{
    // Par_predict = (W*Par_current + Par_past) / (W+1), W = 3.
    Ewma e(3.0, 0.0);
    EXPECT_DOUBLE_EQ(e.update(0.8), (3.0 * 0.8 + 0.0) / 4.0);
    EXPECT_DOUBLE_EQ(e.update(0.4), (3.0 * 0.4 + 0.6) / 4.0);
    EXPECT_DOUBLE_EQ(e.value(), 0.45);
}

TEST(Ewma, WeightThreeIsShiftAndAdd)
{
    // With W=3 the hardware computes (current*2 + current + past) >> 2;
    // verify the arithmetic identity on binary-friendly values.
    Ewma e(3.0, 0.25);
    const double out = e.update(0.5);
    EXPECT_DOUBLE_EQ(out, (0.5 * 2 + 0.5 + 0.25) / 4.0);
}

TEST(Ewma, ConvergesToConstantInput)
{
    Ewma e(3.0, 0.0);
    for (int i = 0; i < 64; ++i)
        e.update(0.7);
    EXPECT_NEAR(e.value(), 0.7, 1e-6);
}

TEST(Ewma, FiltersTransientSpike)
{
    // One-window spike moves the prediction by at most W/(W+1) of the gap.
    Ewma e(3.0, 0.2);
    e.update(1.0);
    EXPECT_LT(e.value(), 0.85);
    EXPECT_GT(e.value(), 0.2);
}

TEST(Ewma, ResetRestoresInitial)
{
    Ewma e(3.0, 0.0);
    e.update(1.0);
    e.reset(0.5);
    EXPECT_DOUBLE_EQ(e.value(), 0.5);
}

TEST(TimeWeightedAverage, ConstantSignal)
{
    TimeWeightedAverage twa;
    twa.start(0.0, 2.0);
    EXPECT_DOUBLE_EQ(twa.average(10.0), 2.0);
    EXPECT_DOUBLE_EQ(twa.integral(10.0), 20.0);
}

TEST(TimeWeightedAverage, StepSignal)
{
    TimeWeightedAverage twa;
    twa.start(0.0, 0.0);
    twa.update(5.0, 4.0);
    // 5 units at 0, 5 units at 4 -> average 2.
    EXPECT_DOUBLE_EQ(twa.average(10.0), 2.0);
}

TEST(TimeWeightedAverage, WindowResetKeepsValue)
{
    TimeWeightedAverage twa;
    twa.start(0.0, 3.0);
    twa.update(10.0, 1.0);
    twa.resetWindow(10.0);
    EXPECT_DOUBLE_EQ(twa.value(), 1.0);
    EXPECT_DOUBLE_EQ(twa.average(20.0), 1.0);
}

TEST(TimeWeightedAverage, ZeroSpanReturnsCurrentValue)
{
    TimeWeightedAverage twa;
    twa.start(5.0, 7.0);
    EXPECT_DOUBLE_EQ(twa.average(5.0), 7.0);
}

TEST(TimeWeightedAverage, MultipleUpdates)
{
    TimeWeightedAverage twa;
    twa.start(0.0, 1.0);
    twa.update(2.0, 3.0);   // [0,2): 1
    twa.update(6.0, 0.0);   // [2,6): 3
    // [6,10): 0 -> integral = 2 + 12 + 0 = 14.
    EXPECT_DOUBLE_EQ(twa.integral(10.0), 14.0);
    EXPECT_DOUBLE_EQ(twa.average(10.0), 1.4);
}
