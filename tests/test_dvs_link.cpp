/**
 * @file
 * DVS channel tests: the Section 2 transition protocol (voltage-first on
 * speed-up, frequency-first on slow-down, disabled during frequency
 * locks), serialization timing, credit sideband timing, transition
 * energy, and the LU window counter.
 */

#include <gtest/gtest.h>

#include "link/dvs_link.hpp"
#include "power/energy_ledger.hpp"
#include "sim/kernel.hpp"
#include "test_packets.hpp"

using dvsnet::Tick;
using dvsnet::VcId;
using dvsnet::cyclesToTicks;
using dvsnet::kRouterClockPeriod;
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

struct Harness
{
    Kernel kernel;
    DvsLevelTable table = DvsLevelTable::standard10();
    Inbox<Flit> flitSink;
    Inbox<VcId> creditSink;
    EnergyLedger ledger{1, 1.6};
    dvsnet::testutil::TestPackets packets;
    DvsChannel channel;

    explicit Harness(DvsLinkParams params = {})
        : channel(kernel, 0, table, params, &ledger)
    {
        channel.connectFlitSink(&flitSink);
        channel.connectCreditSink(&creditSink);
    }

    /** The flit of a new one-flit packet. */
    Flit someFlit() { return packets.single(); }
};

} // namespace

TEST(DvsChannel, StartsStableAtInitialLevel)
{
    Harness h;
    EXPECT_TRUE(h.channel.stable());
    EXPECT_EQ(h.channel.level(), 0u);
    EXPECT_EQ(h.channel.currentPeriod(), Tick{1000});
    EXPECT_DOUBLE_EQ(h.channel.currentVoltage(), 2.5);
}

TEST(DvsChannel, InitialLevelParameterRespected)
{
    DvsLinkParams p;
    p.initialLevel = 9;
    Harness h(p);
    EXPECT_EQ(h.channel.level(), 9u);
    EXPECT_EQ(h.channel.currentPeriod(), Tick{8000});
}

TEST(DvsChannel, SendDeliversAfterSerializationAndPropagation)
{
    Harness h;
    const Tick dep = h.channel.send(h.someFlit(), 5000);
    EXPECT_EQ(dep, Tick{5000});
    EXPECT_EQ(h.flitSink.nextArrival(), Tick{5000 + 2 * 1000});
}

TEST(DvsChannel, BackToBackSendsSpacedByPeriod)
{
    Harness h;
    EXPECT_EQ(h.channel.send(h.someFlit(), 1000), Tick{1000});
    EXPECT_EQ(h.channel.send(h.someFlit(), 1000), Tick{2000});
    EXPECT_EQ(h.channel.send(h.someFlit(), 1500), Tick{3000});
}

TEST(DvsChannel, CanAcceptReflectsBacklog)
{
    Harness h;
    EXPECT_TRUE(h.channel.canAccept(0));
    h.channel.send(h.someFlit(), 0);      // busy until 1000
    EXPECT_TRUE(h.channel.canAccept(0));  // next would start at 1000 <= 0+1000
    h.channel.send(h.someFlit(), 0);      // busy until 2000
    EXPECT_FALSE(h.channel.canAccept(0));
    EXPECT_TRUE(h.channel.canAccept(1000));
}

TEST(DvsChannel, DeliveriesLandInSinksAtSend)
{
    // A send pushes its delivery into the sink at once, stamped with its
    // arrival; no kernel event carries it there.
    Harness h;
    h.channel.send(h.someFlit(), 0);
    h.channel.send(h.someFlit(), 0);
    h.channel.sendCredit(1, 0);
    EXPECT_EQ(h.kernel.pendingEvents(), 0u);
    ASSERT_EQ(h.flitSink.size(), 2u);
    EXPECT_EQ(h.flitSink.nextArrival(), Tick{2000});
    EXPECT_FALSE(h.flitSink.ready(1999));
    h.flitSink.pop(2000);
    EXPECT_EQ(h.flitSink.nextArrival(), Tick{3000});
    ASSERT_EQ(h.creditSink.size(), 1u);
    EXPECT_EQ(h.creditSink.nextArrival(), Tick{2000});
}

TEST(DvsChannel, BurstSplitsOnGapAndLevelChange)
{
    Harness h;
    h.channel.send(h.someFlit(), 0);  // starts burst 1
    h.channel.send(h.someFlit(), 0);  // back-to-back: same burst
    EXPECT_EQ(h.channel.flitBursts(), 1u);
    h.channel.send(h.someFlit(), 5000);  // serialization gap: burst 2
    EXPECT_EQ(h.channel.flitBursts(), 2u);

    // A requestStep changes period_ mid-flight; the next send must
    // open a new burst even though the channel never went idle.
    ASSERT_TRUE(h.channel.requestStep(false, 6000));
    const Tick lockEnd = 6000 + 100 * h.table.level(1).period;
    h.kernel.run(lockEnd);  // functional again (voltage still ramping)
    h.channel.send(h.someFlit(), lockEnd);
    EXPECT_EQ(h.channel.flitBursts(), 3u);
}

TEST(DvsChannel, SlowLevelStretchesSerialization)
{
    DvsLinkParams p;
    p.initialLevel = 9;  // 125 MHz, period 8000
    Harness h(p);
    const Tick dep = h.channel.send(h.someFlit(), 0);
    EXPECT_EQ(dep, Tick{0});
    // 8000 serialization + 1000 fixed wire flight.
    EXPECT_EQ(h.flitSink.nextArrival(), Tick{9000});
    EXPECT_EQ(h.channel.send(h.someFlit(), 0), Tick{8000});
}

TEST(DvsChannel, CreditTakesOneLinkCycle)
{
    Harness h;
    h.channel.sendCredit(0, 500);
    EXPECT_EQ(h.creditSink.nextArrival(), Tick{2500});  // cycle + wire
}

TEST(DvsChannel, SlowDownSequencesFrequencyThenVoltage)
{
    DvsLinkParams p;
    Harness h(p);
    ASSERT_TRUE(h.channel.requestStep(/*faster=*/false, 0));
    // Frequency lock starts immediately: disabled, new (slower) period.
    EXPECT_EQ(h.channel.state(), DvsChannel::State::FreqLock);
    EXPECT_FALSE(h.channel.canAccept(0));
    EXPECT_EQ(h.channel.level(), 1u);

    const Tick lockEnd = 100 * h.table.level(1).period;
    h.kernel.run(lockEnd);
    EXPECT_EQ(h.channel.state(), DvsChannel::State::VoltRampDown);
    EXPECT_TRUE(h.channel.canAccept(h.kernel.now()));  // functional in ramp
    // Voltage still reads as the old level until the ramp settles.
    EXPECT_DOUBLE_EQ(h.channel.currentVoltage(), h.table.level(0).voltage);

    h.kernel.run(lockEnd + secondsToTicks(10e-6));
    EXPECT_TRUE(h.channel.stable());
    EXPECT_DOUBLE_EQ(h.channel.currentVoltage(), h.table.level(1).voltage);
    EXPECT_EQ(h.channel.transitions(), 1u);
}

TEST(DvsChannel, SpeedUpSequencesVoltageThenFrequency)
{
    DvsLinkParams p;
    p.initialLevel = 5;
    Harness h(p);
    const Tick oldPeriod = h.table.level(5).period;
    ASSERT_TRUE(h.channel.requestStep(/*faster=*/true, 0));
    // Voltage ramp first: functional at the old frequency.
    EXPECT_EQ(h.channel.state(), DvsChannel::State::VoltRampUp);
    EXPECT_TRUE(h.channel.canAccept(0));
    EXPECT_EQ(h.channel.currentPeriod(), oldPeriod);
    EXPECT_EQ(h.channel.level(), 4u);

    h.kernel.run(secondsToTicks(10e-6));
    EXPECT_EQ(h.channel.state(), DvsChannel::State::FreqLock);
    EXPECT_FALSE(h.channel.canAccept(h.kernel.now()));
    EXPECT_EQ(h.channel.currentPeriod(), h.table.level(4).period);

    h.kernel.run(secondsToTicks(10e-6) + 100 * h.table.level(4).period);
    EXPECT_TRUE(h.channel.stable());
    EXPECT_EQ(h.channel.level(), 4u);
    EXPECT_EQ(h.channel.transitions(), 1u);
}

TEST(DvsChannel, RequestRejectedWhileTransitioning)
{
    Harness h;
    ASSERT_TRUE(h.channel.requestStep(false, 0));
    EXPECT_FALSE(h.channel.requestStep(false, 0));
    EXPECT_FALSE(h.channel.requestStep(true, 0));
}

TEST(DvsChannel, RequestRejectedAtBoundaries)
{
    Harness fast;  // level 0
    EXPECT_FALSE(fast.channel.requestStep(true, 0));

    DvsLinkParams p;
    p.initialLevel = 9;
    Harness slow(p);
    EXPECT_FALSE(slow.channel.requestStep(false, 0));
}

TEST(DvsChannel, SendsBlockedDuringLockResumeAfter)
{
    Harness h;
    h.channel.requestStep(false, 0);
    const Tick lockEnd = 100 * h.table.level(1).period;
    h.kernel.run(lockEnd / 2);
    EXPECT_FALSE(h.channel.canAccept(h.kernel.now()));
    h.kernel.run(lockEnd);
    EXPECT_TRUE(h.channel.canAccept(h.kernel.now()));
    const Tick dep = h.channel.send(h.someFlit(), h.kernel.now());
    EXPECT_GE(dep, lockEnd);
}

TEST(DvsChannel, CreditsStallDuringLock)
{
    Harness h;
    h.channel.requestStep(false, 0);  // lock [0, 100 * period(1))
    const Tick lockEnd = 100 * h.table.level(1).period;
    h.channel.sendCredit(0, 10);
    EXPECT_EQ(h.creditSink.nextArrival(),
              lockEnd + h.table.level(1).period + kRouterClockPeriod);
}

TEST(DvsChannel, TransitionEnergyMatchesStratakos)
{
    Harness h;
    h.channel.requestStep(false, 0);
    const double v1 = h.table.level(0).voltage;
    const double v2 = h.table.level(1).voltage;
    const double expected = 0.1 * 5e-6 * (v1 * v1 - v2 * v2);
    EXPECT_NEAR(h.ledger.totalTransitionEnergy(), expected, 1e-12);
}

TEST(DvsChannel, FreqLockDurationUsesNewPeriod)
{
    DvsLinkParams p;
    p.freqTransitionLinkCycles = 10;
    Harness h(p);
    h.channel.requestStep(false, 0);
    h.kernel.run(10 * h.table.level(1).period);
    EXPECT_EQ(h.channel.state(), DvsChannel::State::VoltRampDown);
    EXPECT_EQ(h.channel.disabledTime(),
              Tick{10} * h.table.level(1).period);
}

TEST(DvsChannel, UtilizationWindowCountsBusyFraction)
{
    Harness h;
    // 3 flits of 1000 ticks each in a 10000-tick window.
    h.channel.send(h.someFlit(), 0);
    h.channel.send(h.someFlit(), 3000);
    h.channel.send(h.someFlit(), 7000);
    EXPECT_NEAR(h.channel.takeUtilizationWindow(10000), 0.3, 1e-9);
    // Window resets.
    EXPECT_NEAR(h.channel.takeUtilizationWindow(20000), 0.0, 1e-9);
}

TEST(DvsChannel, UtilizationSaturatesAtOne)
{
    Harness h;
    for (int i = 0; i < 12; ++i)
        h.channel.send(h.someFlit(), 0);
    EXPECT_DOUBLE_EQ(h.channel.takeUtilizationWindow(10000), 1.0);
}

TEST(DvsChannel, LedgerSeesStableLevelPower)
{
    Harness h;
    // 8 links at 200 mW.
    EXPECT_NEAR(h.ledger.channelPowerNow(0), 1.6, 1e-12);
    h.channel.requestStep(false, 0);
    h.kernel.run(secondsToTicks(20e-6));
    ASSERT_TRUE(h.channel.stable());
    EXPECT_NEAR(h.ledger.channelPowerNow(0),
                8.0 * h.table.level(1).powerW, 1e-9);
}

TEST(DvsChannel, FullDescentReachesSlowestLevel)
{
    Harness h;
    for (int step = 0; step < 9; ++step) {
        ASSERT_TRUE(h.channel.requestStep(false, h.kernel.now()));
        h.kernel.run(h.kernel.now() + secondsToTicks(10e-6) +
                     100 * 8000 + 1000);
        ASSERT_TRUE(h.channel.stable()) << "step " << step;
    }
    EXPECT_EQ(h.channel.level(), 9u);
    EXPECT_EQ(h.channel.transitions(), 9u);
    EXPECT_NEAR(h.ledger.channelPowerNow(0), 8.0 * 0.0236, 1e-9);
}
