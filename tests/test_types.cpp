/** @file Router-clock arithmetic tests (common/types.hpp). */

#include <gtest/gtest.h>

#include "common/types.hpp"

using dvsnet::Tick;
using dvsnet::routerEdgeAfter;

TEST(Clock, EdgeAfterIsStrict)
{
    // On an edge, the edge after is the next one.
    EXPECT_EQ(routerEdgeAfter(0), Tick{1000});
    EXPECT_EQ(routerEdgeAfter(1000), Tick{2000});
    EXPECT_EQ(routerEdgeAfter(3000), Tick{4000});
    EXPECT_EQ(routerEdgeAfter(1500), Tick{2000});
}

TEST(Clock, NextEdgeOnBoundaryIsIdentity)
{
    // The first edge at or after an on-edge tick is that tick: it is the
    // strict edge after the tick before, and its cycle starts on it.
    EXPECT_EQ(routerEdgeAfter(999), Tick{1000});
    EXPECT_EQ(routerEdgeAfter(2999), Tick{3000});
    EXPECT_EQ(dvsnet::cyclesToTicks(dvsnet::ticksToCycles(0)), Tick{0});
    EXPECT_EQ(dvsnet::cyclesToTicks(dvsnet::ticksToCycles(3000)),
              Tick{3000});
}

TEST(Clock, NextEdgeRoundsUp)
{
    EXPECT_EQ(routerEdgeAfter(1), Tick{1000});
    EXPECT_EQ(routerEdgeAfter(999), Tick{1000});
    EXPECT_EQ(routerEdgeAfter(1001), Tick{2000});
}

TEST(Clock, EdgeAtOrAfterKeepsEdgesAndRoundsUp)
{
    // The edge whose step first sees a delivery arriving at the tick.
    using dvsnet::routerEdgeAtOrAfter;
    EXPECT_EQ(routerEdgeAtOrAfter(0), Tick{0});
    EXPECT_EQ(routerEdgeAtOrAfter(1), Tick{1000});
    EXPECT_EQ(routerEdgeAtOrAfter(1000), Tick{1000});
    EXPECT_EQ(routerEdgeAtOrAfter(8500), Tick{9000});
}

TEST(Clock, CycleCounting)
{
    EXPECT_EQ(dvsnet::ticksToCycles(0), 0u);
    EXPECT_EQ(dvsnet::ticksToCycles(999), 0u);
    EXPECT_EQ(dvsnet::ticksToCycles(1000), 1u);
    EXPECT_EQ(dvsnet::cyclesToTicks(3), Tick{3000});
}

TEST(Clock, PeriodAndFrequencyAgree)
{
    EXPECT_EQ(dvsnet::secondsToTicks(1e-9), dvsnet::kRouterClockPeriod);
    EXPECT_DOUBLE_EQ(dvsnet::ticksToSeconds(dvsnet::kRouterClockPeriod),
                     1e-9);
}

TEST(Clock, RouterClockIsOneGigahertz)
{
    EXPECT_EQ(dvsnet::kRouterClockPeriod, Tick{1000});
    EXPECT_DOUBLE_EQ(dvsnet::kTicksPerSecond /
                         static_cast<double>(dvsnet::kRouterClockPeriod),
                     1e9);
}

TEST(ClockConversions, SecondsAndCycles)
{
    EXPECT_EQ(dvsnet::secondsToTicks(10e-6), Tick{10000000});  // 10 us
    EXPECT_DOUBLE_EQ(dvsnet::ticksToSeconds(1000000), 1e-6);
    EXPECT_EQ(dvsnet::cyclesToTicks(200), Tick{200000});
    EXPECT_EQ(dvsnet::ticksToCycles(200999), 200u);
}
