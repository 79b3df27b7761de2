/**
 * @file
 * Power model tests: Stratakos transition energy (Eq. 1), energy-ledger
 * integration and normalization, Fig. 7 router power profile constants.
 */

#include <gtest/gtest.h>

#include "power/energy_ledger.hpp"
#include "power/power_model.hpp"
#include "power/router_power.hpp"

using dvsnet::Tick;
using dvsnet::secondsToTicks;
using dvsnet::power::EnergyLedger;
using dvsnet::power::RouterPowerProfile;
using dvsnet::power::TransitionEnergyModel;

TEST(TransitionEnergy, MatchesEquationOne)
{
    const TransitionEnergyModel m(5e-6, 0.9);
    // E = (1 - 0.9) * 5uF * |2.5^2 - 0.9^2| = 0.5e-6 * 5.44
    EXPECT_NEAR(m.transitionEnergy(2.5, 0.9), 2.72e-6, 1e-12);
}

TEST(TransitionEnergy, SymmetricInDirection)
{
    const TransitionEnergyModel m;
    EXPECT_DOUBLE_EQ(m.transitionEnergy(1.0, 2.0),
                     m.transitionEnergy(2.0, 1.0));
}

TEST(TransitionEnergy, ZeroForNoChange)
{
    const TransitionEnergyModel m;
    EXPECT_DOUBLE_EQ(m.transitionEnergy(1.7, 1.7), 0.0);
}

TEST(TransitionEnergy, DefaultsArePaperValues)
{
    const TransitionEnergyModel m;
    EXPECT_DOUBLE_EQ(m.capacitance(), 5e-6);
    EXPECT_DOUBLE_EQ(m.efficiency(), 0.9);
}

TEST(TransitionEnergy, PerfectRegulatorCostsNothing)
{
    const TransitionEnergyModel m(5e-6, 1.0);
    EXPECT_DOUBLE_EQ(m.transitionEnergy(0.9, 2.5), 0.0);
}

TEST(EnergyLedger, ConstantPowerIntegrates)
{
    EnergyLedger ledger(2, 1.6);
    ledger.setChannelPower(0, 1.6, 0);
    ledger.setChannelPower(1, 1.6, 0);
    const Tick oneMs = secondsToTicks(1e-3);
    EXPECT_NEAR(ledger.totalEnergy(oneMs), 2 * 1.6e-3, 1e-12);
    EXPECT_NEAR(ledger.averagePower(oneMs), 3.2, 1e-9);
}

TEST(EnergyLedger, NormalizedPowerIsOneAtReference)
{
    EnergyLedger ledger(4, 1.6);
    for (std::size_t c = 0; c < 4; ++c)
        ledger.setChannelPower(c, 1.6, 0);
    EXPECT_NEAR(ledger.normalizedPower(secondsToTicks(1e-4)), 1.0, 1e-9);
    EXPECT_NEAR(ledger.savingsFactor(secondsToTicks(1e-4)), 1.0, 1e-9);
}

TEST(EnergyLedger, SavingsFactorScales)
{
    EnergyLedger ledger(1, 1.6);
    ledger.setChannelPower(0, 0.4, 0);  // quarter power
    EXPECT_NEAR(ledger.savingsFactor(secondsToTicks(1e-4)), 4.0, 1e-9);
    EXPECT_NEAR(ledger.normalizedPower(secondsToTicks(1e-4)), 0.25, 1e-9);
}

TEST(EnergyLedger, PowerStepsIntegratePiecewise)
{
    EnergyLedger ledger(1, 1.6);
    ledger.setChannelPower(0, 2.0, 0);
    ledger.setChannelPower(0, 1.0, secondsToTicks(1e-3));
    // 2 W for 1 ms + 1 W for 1 ms = 3 mJ.
    EXPECT_NEAR(ledger.totalEnergy(secondsToTicks(2e-3)), 3e-3, 1e-12);
    EXPECT_NEAR(ledger.channelAveragePower(0, secondsToTicks(2e-3)), 1.5,
                1e-9);
}

TEST(EnergyLedger, TransitionEnergyIncluded)
{
    EnergyLedger ledger(1, 1.6);
    ledger.setChannelPower(0, 1.0, 0);
    ledger.addTransitionEnergy(0, 1e-3);
    const Tick oneMs = secondsToTicks(1e-3);
    EXPECT_NEAR(ledger.totalEnergy(oneMs), 2e-3, 1e-12);
    EXPECT_NEAR(ledger.averagePower(oneMs), 2.0, 1e-9);
}

TEST(EnergyLedger, WindowResetDropsHistory)
{
    EnergyLedger ledger(1, 1.6);
    ledger.setChannelPower(0, 10.0, 0);  // hot warm-up
    ledger.addTransitionEnergy(0, 5.0);
    const Tick warmEnd = secondsToTicks(1e-3);
    ledger.setChannelPower(0, 1.0, warmEnd);
    ledger.beginWindow(warmEnd);
    const Tick end = secondsToTicks(2e-3);
    EXPECT_NEAR(ledger.averagePower(end), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(ledger.totalTransitionEnergy(), 0.0);
}

TEST(EnergyLedger, ReferencePowerCountsAllChannels)
{
    EnergyLedger ledger(224, 1.6);
    // The paper's 8x8 mesh: 224 actual channels * 1.6 W = 358.4 W
    // (the paper's 409.6 W uses the idealized 64*4-port count).
    EXPECT_NEAR(ledger.referencePower(), 358.4, 1e-9);
}

TEST(RouterPowerProfile, LinkFractionMatchesPaper)
{
    const auto p = RouterPowerProfile::paper();
    EXPECT_NEAR(p.linkFraction(), 0.824, 1e-6);
}

TEST(RouterPowerProfile, LinkSliceIsSixPointFourWatts)
{
    const auto p = RouterPowerProfile::paper();
    EXPECT_NEAR(p.slices()[0].watts, 6.4, 1e-9);
}

TEST(RouterPowerProfile, AllocatorsAre81mW)
{
    const auto p = RouterPowerProfile::paper();
    for (const auto &s : p.slices()) {
        if (s.component == "allocators") {
            EXPECT_NEAR(s.watts, 0.081, 1e-9);
        }
    }
}

TEST(RouterPowerProfile, FractionsSumToOne)
{
    const auto p = RouterPowerProfile::paper();
    double sum = 0.0;
    for (const auto &s : p.slices())
        sum += s.fraction;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RouterPowerProfile, TotalNearSevenPointEightWatts)
{
    const auto p = RouterPowerProfile::paper();
    EXPECT_NEAR(p.totalW(), 6.4 / 0.824, 1e-6);
}
