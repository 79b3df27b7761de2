/**
 * @file
 * Dynamic-threshold extension tests: the Section 4.4.2 idea of sliding
 * along Table 2's settings at runtime based on downstream pressure.
 */

#include <gtest/gtest.h>

#include "core/dynamic_threshold.hpp"

using dvsnet::core::DvsAction;
using dvsnet::core::DynamicThresholdParams;
using dvsnet::core::DynamicThresholdPolicy;
using dvsnet::core::PolicyInput;

namespace
{

PolicyInput
in(double lu, double bu)
{
    PolicyInput i;
    i.linkUtil = lu;
    i.bufferUtil = bu;
    i.level = 5;
    return i;
}

} // namespace

TEST(DynamicThreshold, StartsAtConfiguredSetting)
{
    DynamicThresholdPolicy p;
    EXPECT_EQ(p.setting(), 2);  // III = Table 1 defaults
}

TEST(DynamicThreshold, RelaxesTowardAggressiveWhenBuLow)
{
    DynamicThresholdParams params;
    params.adaptPeriod = 4;
    DynamicThresholdPolicy p(params);
    // BU ~ 0: after each adapt period the setting slides toward VI.
    for (int i = 0; i < 4 * 8; ++i)
        p.decide(in(0.35, 0.0));
    EXPECT_EQ(p.setting(), 5);
    EXPECT_GE(p.settingChanges(), 3u);
}

TEST(DynamicThreshold, TightensTowardGentleWhenBuHigh)
{
    DynamicThresholdParams params;
    params.adaptPeriod = 4;
    params.initialSetting = 4;
    DynamicThresholdPolicy p(params);
    for (int i = 0; i < 4 * 8; ++i)
        p.decide(in(0.35, 0.4));
    EXPECT_EQ(p.setting(), 0);
}

TEST(DynamicThreshold, HoldsInTheMidBand)
{
    DynamicThresholdParams params;
    params.adaptPeriod = 4;
    DynamicThresholdPolicy p(params);
    for (int i = 0; i < 4 * 8; ++i)
        p.decide(in(0.35, 0.10));  // between buRelax and buTighten
    EXPECT_EQ(p.setting(), 2);
    EXPECT_EQ(p.settingChanges(), 0u);
}

TEST(DynamicThreshold, DecisionsFollowCurrentBank)
{
    // LU 0.45 is Slower under setting VI (0.5/0.6) but Faster under
    // setting I (0.2/0.3): after relaxing to VI the action flips.
    DynamicThresholdParams params;
    params.adaptPeriod = 2;
    DynamicThresholdPolicy p(params);
    DvsAction a = DvsAction::Hold;
    for (int i = 0; i < 64; ++i)
        a = p.decide(in(0.45, 0.0));
    EXPECT_EQ(p.setting(), 5);
    EXPECT_EQ(a, DvsAction::Slower);
}

TEST(DynamicThreshold, SettingStaysInTableRange)
{
    DynamicThresholdParams params;
    params.adaptPeriod = 1;
    DynamicThresholdPolicy p(params);
    for (int i = 0; i < 100; ++i) {
        p.decide(in(0.35, 0.0));
        ASSERT_GE(p.setting(), 0);
        ASSERT_LE(p.setting(), 5);
    }
    for (int i = 0; i < 100; ++i) {
        p.decide(in(0.35, 0.9));
        ASSERT_GE(p.setting(), 0);
        ASSERT_LE(p.setting(), 5);
    }
}

TEST(DynamicThresholdDeathTest, BadBoundsRejected)
{
    DynamicThresholdParams params;
    params.buRelax = 0.5;
    params.buTighten = 0.2;
    EXPECT_DEATH(DynamicThresholdPolicy{params}, "relax bound");
}
