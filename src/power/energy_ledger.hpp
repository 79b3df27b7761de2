/**
 * @file
 * Network-wide energy accounting.
 *
 * Every DVS channel reports operating-point (power) changes and voltage-
 * transition overhead energies here; the ledger integrates piecewise-
 * constant power over time, so "power consumed by the network is derived
 * based on the frequency and voltage levels set for all the channels"
 * (Section 4.2) plus transition overheads.  A measurement window can be
 * restarted after warm-up.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/counters.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dvsnet::power
{

/** Integrates per-channel power and transition energy over time. */
class EnergyLedger
{
  public:
    /**
     * @param numChannels DVS channels to track
     * @param referencePowerW dissipation of one channel pinned at the
     *        fastest level (for normalized-power reporting)
     */
    EnergyLedger(std::size_t numChannels, double referencePowerW);

    /** Record that channel `ch` now dissipates `powerW` (at `now`). */
    void setChannelPower(std::size_t ch, double powerW, Tick now);

    /** Add voltage-transition overhead energy (J) to channel `ch`. */
    void addTransitionEnergy(std::size_t ch, double joules);

    /**
     * Add per-flit (data-dependent) energy (J) to channel `ch`.
     * Charged by link-power backends whose dynamic energy depends on
     * payload activity; composes with the window accounting exactly
     * like transition energy.
     */
    void addFlitEnergy(std::size_t ch, double joules);

    /** Restart the measurement window (e.g. after warm-up). */
    void beginWindow(Tick now);

    /** Current power of channel `ch` (W). */
    double channelPowerNow(std::size_t ch) const;

    /** Mean power of channel `ch` over the window (W, incl. transitions). */
    double channelAveragePower(std::size_t ch, Tick now) const;

    /** Energy of channel `ch` over the window (J, incl. transitions). */
    double channelEnergy(std::size_t ch, Tick now) const;

    /** Transition overhead charged to channel `ch` this window (J). */
    double channelTransitionEnergy(std::size_t ch) const;

    /** Per-flit energy charged to channel `ch` this window (J). */
    double channelFlitEnergy(std::size_t ch) const;

    /** Total network energy over the window (J, incl. transitions
     *  and per-flit charges). */
    double totalEnergy(Tick now) const;

    /** Total transition overhead energy over the window (J). */
    double totalTransitionEnergy() const { return totalTransitionJ_; }

    /** Total per-flit energy over the window (J). */
    double totalFlitEnergy() const { return totalFlitJ_; }

    /** Mean network power over the window (W). */
    double averagePower(Tick now) const;

    /** All channels pinned at the fastest level (W). */
    double referencePower() const
    {
        return referencePowerW_ * static_cast<double>(accounts_.size());
    }

    /**
     * Mean network power normalized to the non-DVS reference
     * (1.0 = no savings; the paper's Fig. 10(b)/11(b) metric).
     */
    double normalizedPower(Tick now) const;

    /** Power-saving factor: reference / measured (the paper's "X"). */
    double savingsFactor(Tick now) const;

    std::size_t numChannels() const { return accounts_.size(); }

    /**
     * Check internal accounting against `inv`: the total reported
     * energy equals the sum of the per-channel energies (two
     * independently maintained paths through the ledger).
     */
    void verify(SimAssert &inv, Tick now) const;

  private:
    struct Account
    {
        TimeWeightedAverage power;  ///< time axis in seconds
        double transitionJ = 0.0;
        double windowTransitionJ = 0.0;
        double flitJ = 0.0;
        double windowFlitJ = 0.0;
    };

    std::vector<Account> accounts_;
    double referencePowerW_;
    double totalTransitionJ_ = 0.0;
    double totalFlitJ_ = 0.0;
    Tick windowStart_ = 0;
};

} // namespace dvsnet::power
