#include "power/energy_ledger.hpp"

#include <algorithm>
#include <cmath>

#include "common/fatal.hpp"

namespace dvsnet::power
{

EnergyLedger::EnergyLedger(std::size_t numChannels, double referencePowerW)
    : accounts_(numChannels), referencePowerW_(referencePowerW)
{
    DVSNET_ASSERT(numChannels > 0, "ledger needs at least one channel");
    DVSNET_ASSERT(referencePowerW > 0, "reference power must be positive");
    for (auto &acc : accounts_)
        acc.power.start(0.0, 0.0);
}

void
EnergyLedger::setChannelPower(std::size_t ch, double powerW, Tick now)
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    accounts_[ch].power.update(ticksToSeconds(now), powerW);
}

void
EnergyLedger::addTransitionEnergy(std::size_t ch, double joules)
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    accounts_[ch].transitionJ += joules;
    accounts_[ch].windowTransitionJ += joules;
    totalTransitionJ_ += joules;
}

void
EnergyLedger::addFlitEnergy(std::size_t ch, double joules)
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    accounts_[ch].flitJ += joules;
    accounts_[ch].windowFlitJ += joules;
    totalFlitJ_ += joules;
}

void
EnergyLedger::beginWindow(Tick now)
{
    windowStart_ = now;
    totalTransitionJ_ = 0.0;
    totalFlitJ_ = 0.0;
    for (auto &acc : accounts_) {
        acc.power.resetWindow(ticksToSeconds(now));
        acc.windowTransitionJ = 0.0;
        acc.windowFlitJ = 0.0;
    }
}

double
EnergyLedger::channelPowerNow(std::size_t ch) const
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    return accounts_[ch].power.value();
}

double
EnergyLedger::channelAveragePower(std::size_t ch, Tick now) const
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    const double span = ticksToSeconds(now) - ticksToSeconds(windowStart_);
    if (span <= 0.0)
        return accounts_[ch].power.value();
    return (accounts_[ch].power.integral(ticksToSeconds(now)) +
            accounts_[ch].windowTransitionJ + accounts_[ch].windowFlitJ) /
           span;
}

double
EnergyLedger::channelEnergy(std::size_t ch, Tick now) const
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    return accounts_[ch].power.integral(ticksToSeconds(now)) +
           accounts_[ch].windowTransitionJ + accounts_[ch].windowFlitJ;
}

double
EnergyLedger::channelTransitionEnergy(std::size_t ch) const
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    return accounts_[ch].windowTransitionJ;
}

double
EnergyLedger::channelFlitEnergy(std::size_t ch) const
{
    DVSNET_ASSERT(ch < accounts_.size(), "channel out of range");
    return accounts_[ch].windowFlitJ;
}

double
EnergyLedger::totalEnergy(Tick now) const
{
    double joules = totalTransitionJ_ + totalFlitJ_;
    const double t = ticksToSeconds(now);
    for (const auto &acc : accounts_)
        joules += acc.power.integral(t);
    return joules;
}

double
EnergyLedger::averagePower(Tick now) const
{
    const double span = ticksToSeconds(now) - ticksToSeconds(windowStart_);
    if (span <= 0.0)
        return 0.0;
    return totalEnergy(now) / span;
}

double
EnergyLedger::normalizedPower(Tick now) const
{
    return averagePower(now) / referencePower();
}

double
EnergyLedger::savingsFactor(Tick now) const
{
    const double p = averagePower(now);
    if (p <= 0.0)
        return 0.0;
    return referencePower() / p;
}

void
EnergyLedger::verify(SimAssert &inv, Tick now) const
{
    // totalEnergy integrates per-channel power plus the network-wide
    // transition total; channelEnergy uses the per-channel transition
    // shares.  The two paths must agree up to summation rounding.
    double channelSum = 0.0;
    for (std::size_t ch = 0; ch < accounts_.size(); ++ch)
        channelSum += channelEnergy(ch, now);
    const double total = totalEnergy(now);
    const double tolerance = 1e-9 * std::max(1.0, std::abs(total));
    inv.check(std::abs(channelSum - total) <= tolerance,
              "ledger disagreement: sum of per-channel energies ",
              channelSum, " J vs total ", total, " J");
    double transitionSum = 0.0;
    for (const auto &acc : accounts_)
        transitionSum += acc.windowTransitionJ;
    inv.check(std::abs(transitionSum - totalTransitionJ_) <=
                  1e-9 * std::max(1.0, std::abs(totalTransitionJ_)),
              "transition-energy disagreement: per-channel sum ",
              transitionSum, " J vs total ", totalTransitionJ_, " J");
    double flitSum = 0.0;
    for (const auto &acc : accounts_)
        flitSum += acc.windowFlitJ;
    inv.check(std::abs(flitSum - totalFlitJ_) <=
                  1e-9 * std::max(1.0, std::abs(totalFlitJ_)),
              "flit-energy disagreement: per-channel sum ", flitSum,
              " J vs total ", totalFlitJ_, " J");
}

} // namespace dvsnet::power
