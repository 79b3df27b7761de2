/**
 * @file
 * Parameterized DVS-link property sweeps: every adjacent level pair, in
 * both directions, must obey the Section 2 transition protocol
 * (sequencing, timing, energy) — plus cross-parameter sweeps of the
 * transition characteristics used in Figs. 16-17.
 */

#include <gtest/gtest.h>

#include "link/dvs_link.hpp"
#include "power/energy_ledger.hpp"
#include "sim/kernel.hpp"

using dvsnet::Cycle;
using dvsnet::Tick;
using dvsnet::VcId;
using dvsnet::secondsToTicks;
using dvsnet::link::DvsChannel;
using dvsnet::link::DvsLevelTable;
using dvsnet::link::DvsLinkParams;
using dvsnet::power::EnergyLedger;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::sim::Kernel;

namespace
{

struct StepCase
{
    std::size_t fromLevel;
    bool faster;
};

/**
 * Names the case in test output and ctest names ("level 3 faster").
 * Without it gtest prints the struct's raw bytes, padding included, so
 * the names changed from one build to the next.
 */
void PrintTo(const StepCase &c, std::ostream *os)
{
    *os << "level " << c.fromLevel << (c.faster ? " faster" : " slower");
}

class AdjacentTransition : public ::testing::TestWithParam<StepCase>
{
  protected:
    Kernel kernel;
    DvsLevelTable table = DvsLevelTable::standard10();
    Inbox<Flit> flitSink;
    Inbox<VcId> creditSink;
    EnergyLedger ledger{1, 1.6};
};

std::vector<StepCase>
allAdjacentSteps()
{
    std::vector<StepCase> cases;
    for (std::size_t level = 0; level < 10; ++level) {
        if (level > 0)
            cases.push_back({level, true});
        if (level < 9)
            cases.push_back({level, false});
    }
    return cases;
}

} // namespace

TEST_P(AdjacentTransition, CompletesWithCorrectTimingAndEnergy)
{
    const auto [fromLevel, faster] = GetParam();
    DvsLinkParams params;
    params.initialLevel = fromLevel;
    DvsChannel channel(kernel, 0, table, params, &ledger);
    channel.connectFlitSink(&flitSink);
    channel.connectCreditSink(&creditSink);

    const std::size_t toLevel = faster ? fromLevel - 1 : fromLevel + 1;
    ASSERT_TRUE(channel.requestStep(faster, 0));
    EXPECT_EQ(channel.level(), toLevel);
    EXPECT_FALSE(channel.stable());

    // Protocol: speed-up ramps voltage first (functional), slow-down
    // locks frequency first (disabled).
    if (faster) {
        EXPECT_EQ(channel.state(), DvsChannel::State::VoltRampUp);
        EXPECT_TRUE(channel.canAccept(0));
    } else {
        EXPECT_EQ(channel.state(), DvsChannel::State::FreqLock);
        EXPECT_FALSE(channel.canAccept(0));
    }

    // Total transition time: 10 us ramp + 100 cycles of the new clock.
    const Tick total = secondsToTicks(10e-6) +
                       100 * table.level(toLevel).period;
    kernel.run(total);
    EXPECT_TRUE(channel.stable());
    EXPECT_EQ(channel.level(), toLevel);
    EXPECT_EQ(channel.currentPeriod(), table.level(toLevel).period);
    EXPECT_DOUBLE_EQ(channel.currentVoltage(),
                     table.level(toLevel).voltage);

    // Energy: Stratakos step between the two voltages.
    const double v1 = table.level(fromLevel).voltage;
    const double v2 = table.level(toLevel).voltage;
    EXPECT_NEAR(ledger.totalTransitionEnergy(),
                0.1 * 5e-6 * std::abs(v2 * v2 - v1 * v1), 1e-12);

    // Power settles at the new level.
    EXPECT_NEAR(ledger.channelPowerNow(0),
                8.0 * table.level(toLevel).powerW, 1e-9);

    // Disabled exactly for the lock.
    EXPECT_EQ(channel.disabledTime(),
              Tick{100} * table.level(toLevel).period);
}

INSTANTIATE_TEST_SUITE_P(AllAdjacentPairs, AdjacentTransition,
                         ::testing::ValuesIn(allAdjacentSteps()));

namespace
{

class TransitionParamSweep
    : public ::testing::TestWithParam<std::tuple<double, Cycle>>
{};

} // namespace

TEST_P(TransitionParamSweep, TimingScalesWithParameters)
{
    const auto [voltUs, lockCycles] = GetParam();
    Kernel kernel;
    const DvsLevelTable table = DvsLevelTable::standard10();
    Inbox<Flit> flitSink;
    Inbox<VcId> creditSink;

    DvsLinkParams params;
    params.voltageTransitionLatency = secondsToTicks(voltUs * 1e-6);
    params.freqTransitionLinkCycles = lockCycles;
    DvsChannel channel(kernel, 0, table, params, nullptr);
    channel.connectFlitSink(&flitSink);
    channel.connectCreditSink(&creditSink);

    ASSERT_TRUE(channel.requestStep(/*faster=*/false, 0));
    const Tick lockEnd = lockCycles * table.level(1).period;
    kernel.run(lockEnd - 1);
    EXPECT_EQ(channel.state(), DvsChannel::State::FreqLock);
    kernel.run(lockEnd);
    EXPECT_EQ(channel.state(), DvsChannel::State::VoltRampDown);
    kernel.run(lockEnd + secondsToTicks(voltUs * 1e-6) - 1);
    EXPECT_FALSE(channel.stable());
    kernel.run(lockEnd + secondsToTicks(voltUs * 1e-6));
    EXPECT_TRUE(channel.stable());
}

INSTANTIATE_TEST_SUITE_P(
    Fig16Fig17Grid, TransitionParamSweep,
    ::testing::Combine(::testing::Values(10.0, 5.0, 1.0),
                       ::testing::Values(Cycle{100}, Cycle{50},
                                         Cycle{10})));
