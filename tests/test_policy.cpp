/**
 * @file
 * DVS policy tests: Algorithm 1's threshold logic, EWMA history (Eq. 5),
 * the congestion litmus that switches threshold banks, Table 2 settings,
 * and the static-level baseline.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/history_policy.hpp"
#include "core/policy.hpp"

using dvsnet::core::DvsAction;
using dvsnet::core::HistoryDvsParams;
using dvsnet::core::HistoryDvsPolicy;
using dvsnet::core::PolicyInput;
using dvsnet::core::StaticLevelPolicy;

namespace
{

PolicyInput
in(double lu, double bu, std::size_t level = 5)
{
    PolicyInput i;
    i.linkUtil = lu;
    i.bufferUtil = bu;
    i.level = level;
    return i;
}

/** Feed the same input until the EWMA converges. */
DvsAction
steadyDecision(HistoryDvsPolicy &p, double lu, double bu)
{
    DvsAction a = DvsAction::Hold;
    for (int i = 0; i < 32; ++i)
        a = p.decide(in(lu, bu));
    return a;
}

} // namespace

TEST(HistoryPolicy, LowUtilizationStepsSlower)
{
    HistoryDvsPolicy p;
    EXPECT_EQ(steadyDecision(p, 0.1, 0.1), DvsAction::Slower);
}

TEST(HistoryPolicy, HighUtilizationStepsFaster)
{
    HistoryDvsPolicy p;
    EXPECT_EQ(steadyDecision(p, 0.9, 0.1), DvsAction::Faster);
}

TEST(HistoryPolicy, MidBandHolds)
{
    HistoryDvsPolicy p;
    // Between TL_low=0.3 and TL_high=0.4.
    EXPECT_EQ(steadyDecision(p, 0.35, 0.1), DvsAction::Hold);
}

TEST(HistoryPolicy, CongestionLitmusRaisesThresholds)
{
    // LU = 0.55: above TL_high (0.4) -> Faster when uncongested, but
    // below TH_low (0.6) -> Slower when BU exceeds B_congested = 0.5.
    HistoryDvsPolicy light;
    EXPECT_EQ(steadyDecision(light, 0.55, 0.1), DvsAction::Faster);

    HistoryDvsPolicy congested;
    EXPECT_EQ(steadyDecision(congested, 0.55, 0.9), DvsAction::Slower);
}

TEST(HistoryPolicy, CongestedBandHoldsBetweenThSixtyAndSeventy)
{
    HistoryDvsPolicy p;
    EXPECT_EQ(steadyDecision(p, 0.65, 0.9), DvsAction::Hold);
}

TEST(HistoryPolicy, VeryHighUtilStepsFasterEvenWhenCongested)
{
    HistoryDvsPolicy p;
    EXPECT_EQ(steadyDecision(p, 0.95, 0.9), DvsAction::Faster);
}

TEST(HistoryPolicy, EwmaFiltersSingleWindowSpike)
{
    // Steady 0.35 (hold band), one spike to 1.0: the history-weighted
    // prediction moves to (1.0 + 3*0.35)/4 ~ 0.51 -> Faster briefly,
    // then decays by ~25% per window back into the hold band.
    HistoryDvsPolicy p;
    steadyDecision(p, 0.35, 0.1);
    EXPECT_EQ(p.decide(in(1.0, 0.1)), DvsAction::Faster);
    DvsAction a = DvsAction::Faster;
    for (int i = 0; i < 8; ++i)
        a = p.decide(in(0.35, 0.1));
    EXPECT_EQ(a, DvsAction::Hold);
}

TEST(HistoryPolicy, EwmaStateMatchesHistoryWeightedEquationFive)
{
    // Default reading: Par_predict = (Par_current + W*Par_past)/(W+1).
    HistoryDvsPolicy p;
    p.decide(in(0.8, 0.4));
    EXPECT_DOUBLE_EQ(p.predictedLinkUtil(), 0.2);
    EXPECT_DOUBLE_EQ(p.predictedBufferUtil(), 0.1);
    p.decide(in(0.4, 0.2));
    EXPECT_DOUBLE_EQ(p.predictedLinkUtil(), (0.4 + 3 * 0.2) / 4);
}

TEST(HistoryPolicy, LiteralEquationFiveModeAvailable)
{
    // weightOnHistory = false gives the printed form:
    // Par_predict = (W*Par_current + Par_past)/(W+1).
    HistoryDvsParams params;
    params.weightOnHistory = false;
    HistoryDvsPolicy p(params);
    p.decide(in(0.8, 0.4));
    EXPECT_DOUBLE_EQ(p.predictedLinkUtil(), 0.6);
    EXPECT_DOUBLE_EQ(p.predictedBufferUtil(), 0.3);
    p.decide(in(0.4, 0.2));
    EXPECT_DOUBLE_EQ(p.predictedLinkUtil(), (3 * 0.4 + 0.6) / 4);
}

TEST(HistoryPolicy, ThresholdSettingsMatchTableTwo)
{
    const double lows[] = {0.20, 0.25, 0.30, 0.35, 0.40, 0.50};
    const double highs[] = {0.30, 0.35, 0.40, 0.45, 0.50, 0.60};
    for (int s = 0; s < 6; ++s) {
        const auto p = HistoryDvsParams::thresholdSetting(s);
        EXPECT_DOUBLE_EQ(p.tlLow, lows[s]);
        EXPECT_DOUBLE_EQ(p.tlHigh, highs[s]);
        // Congested bank unchanged from Table 1.
        EXPECT_DOUBLE_EQ(p.thLow, 0.6);
        EXPECT_DOUBLE_EQ(p.thHigh, 0.7);
        EXPECT_DOUBLE_EQ(p.bCongested, 0.5);
    }
}

TEST(HistoryPolicy, SettingIIIIsTheTableOneDefault)
{
    const auto iii = HistoryDvsParams::thresholdSetting(2);
    const HistoryDvsParams def;
    EXPECT_DOUBLE_EQ(iii.tlLow, def.tlLow);
    EXPECT_DOUBLE_EQ(iii.tlHigh, def.tlHigh);
}

TEST(HistoryPolicy, MoreAggressiveSettingScalesDownAtHigherUtil)
{
    // LU = 0.45 is Hold under setting I (0.2/0.3 -> above high = Faster!)
    // -- rather: under setting I, 0.45 > 0.3 -> Faster; under setting VI
    // (0.5/0.6), 0.45 < 0.5 -> Slower.  Aggressiveness = readiness to
    // slow down at a given utilization.
    HistoryDvsPolicy gentle(HistoryDvsParams::thresholdSetting(0));
    HistoryDvsPolicy aggressive(HistoryDvsParams::thresholdSetting(5));
    DvsAction ga = DvsAction::Hold, aa = DvsAction::Hold;
    for (int i = 0; i < 32; ++i) {
        ga = gentle.decide(in(0.45, 0.1));
        aa = aggressive.decide(in(0.45, 0.1));
    }
    EXPECT_EQ(ga, DvsAction::Faster);
    EXPECT_EQ(aa, DvsAction::Slower);
}

TEST(LinkUtilOnly, IgnoresCongestionLitmus)
{
    // The LU-only ablation is Algorithm 1 with a litmus no BU reaches
    // (what Network builds for PolicyKind::LinkUtilOnly).
    HistoryDvsParams params;
    params.bCongested = std::numeric_limits<double>::infinity();
    HistoryDvsPolicy p(params);
    DvsAction a = DvsAction::Hold;
    for (int i = 0; i < 32; ++i)
        a = p.decide(in(0.55, 0.9));
    // Without the litmus, 0.55 > TL_high = 0.4 -> Faster even under
    // congestion (the behavior the litmus exists to prevent).
    EXPECT_EQ(a, DvsAction::Faster);
}

TEST(StaticLevel, DrivesTowardTarget)
{
    StaticLevelPolicy p(7);
    EXPECT_EQ(p.decide(in(0.5, 0.5, 5)), DvsAction::Slower);
    EXPECT_EQ(p.decide(in(0.5, 0.5, 9)), DvsAction::Faster);
    EXPECT_EQ(p.decide(in(0.5, 0.5, 7)), DvsAction::Hold);
}

TEST(HistoryPolicyDeathTest, InvertedThresholdsRejected)
{
    HistoryDvsParams bad;
    bad.tlLow = 0.5;
    bad.tlHigh = 0.4;
    EXPECT_DEATH(HistoryDvsPolicy{bad}, "TL_low");
}
