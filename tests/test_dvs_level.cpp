/**
 * @file
 * DVS operating-point table tests: the paper's published endpoints
 * (125 MHz/0.9 V/23.6 mW and 1 GHz/2.5 V/200 mW), monotonicity across the
 * ten levels, and the fitted P(V, f) power law.
 */

#include <gtest/gtest.h>

#include "link/dvs_level.hpp"

using dvsnet::Tick;
using dvsnet::link::DvsLevel;
using dvsnet::link::DvsLevelTable;

TEST(DvsLevelTable, HasTenLevels)
{
    const auto t = DvsLevelTable::standard10();
    EXPECT_EQ(t.size(), 10u);
    EXPECT_EQ(t.fastest(), 0u);
    EXPECT_EQ(t.slowest(), 9u);
}

TEST(DvsLevelTable, EndpointsMatchPaper)
{
    const auto t = DvsLevelTable::standard10();
    EXPECT_DOUBLE_EQ(t.level(0).frequencyHz, 1e9);
    EXPECT_DOUBLE_EQ(t.level(0).voltage, 2.5);
    EXPECT_DOUBLE_EQ(t.level(0).powerW, 0.200);
    EXPECT_DOUBLE_EQ(t.level(9).frequencyHz, 125e6);
    EXPECT_DOUBLE_EQ(t.level(9).voltage, 0.9);
    EXPECT_DOUBLE_EQ(t.level(9).powerW, 0.0236);
}

TEST(DvsLevelTable, FrequencyStrictlyDecreasing)
{
    const auto t = DvsLevelTable::standard10();
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_LT(t.level(i).frequencyHz, t.level(i - 1).frequencyHz);
}

TEST(DvsLevelTable, VoltageAndPowerMonotone)
{
    const auto t = DvsLevelTable::standard10();
    for (std::size_t i = 1; i < t.size(); ++i) {
        EXPECT_LT(t.level(i).voltage, t.level(i - 1).voltage);
        EXPECT_LT(t.level(i).powerW, t.level(i - 1).powerW);
    }
}

TEST(DvsLevelTable, PeriodsMatchFrequencies)
{
    const auto t = DvsLevelTable::standard10();
    EXPECT_EQ(t.level(0).period, Tick{1000});   // 1 GHz
    EXPECT_EQ(t.level(9).period, Tick{8000});   // 125 MHz
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(t.level(i).period),
                    1e12 / t.level(i).frequencyHz, 1.0);
    }
}

TEST(DvsLevelTable, MaxMinPowerRatioMatchesPaper)
{
    // 200 / 23.6 ~ 8.5x, the paper's dynamic range (not V^2*f's ~62x).
    const auto t = DvsLevelTable::standard10();
    EXPECT_NEAR(t.level(0).powerW / t.level(9).powerW, 8.47, 0.05);
}

TEST(DvsLevelTable, PowerAtReproducesLevelPowers)
{
    const auto t = DvsLevelTable::standard10();
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_NEAR(t.powerAt(t.level(i).voltage, t.level(i).frequencyHz),
                    t.level(i).powerW, 1e-12);
    }
}

TEST(DvsLevelTable, FitCoefficientsArePhysical)
{
    const auto t = DvsLevelTable::standard10();
    EXPECT_GT(t.coeffA(), 0.0);
    EXPECT_GE(t.coeffB(), 0.0);
    // The static floor should sit below the minimum level power.
    EXPECT_LT(t.coeffB(), 0.0236);
}

TEST(DvsLevelTable, PowerAtIsMonotoneInBothArguments)
{
    const auto t = DvsLevelTable::standard10();
    EXPECT_LT(t.powerAt(1.0, 500e6), t.powerAt(1.5, 500e6));
    EXPECT_LT(t.powerAt(1.5, 300e6), t.powerAt(1.5, 600e6));
}

TEST(DvsLevelTable, FromPointsKeepsExplicitPowers)
{
    std::vector<DvsLevel> lv(3);
    lv[0] = {1e9, 2.5, 0.2, 0};
    lv[1] = {500e6, 1.7, 0.09, 0};
    lv[2] = {125e6, 0.9, 0.0236, 0};
    const auto t = DvsLevelTable::fromPoints(lv);
    EXPECT_DOUBLE_EQ(t.level(1).powerW, 0.09);
}

TEST(DvsLevelTableDeathTest, NonDecreasingFrequenciesRejected)
{
    std::vector<DvsLevel> lv(2);
    lv[0] = {500e6, 1.7, 0.09, 0};
    lv[1] = {500e6, 0.9, 0.02, 0};
    EXPECT_DEATH(DvsLevelTable::fromPoints(lv), "strictly decreasing");
}
