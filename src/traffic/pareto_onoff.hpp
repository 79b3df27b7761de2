/**
 * @file
 * Self-similar traffic via multiplexed Pareto ON/OFF sources
 * (Section 4.3, after Leland et al. / Willinger et al.).
 *
 * Each source alternates heavy-tailed ON and OFF periods (Pareto shapes
 * 1.4 and 1.2 per the paper's Ethernet-calibrated choice); while ON it
 * emits packets as a Poisson process at its ON rate.  Aggregating many
 * such sources produces long-range-dependent arrivals whose burstiness
 * persists across timescales — the property Poisson injection famously
 * lacks.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::traffic
{

/** Shape/scale configuration of the ON/OFF envelope. */
struct OnOffParams
{
    double onShape = 1.4;        ///< Pareto shape of ON periods
    double offShape = 1.2;       ///< Pareto shape of OFF periods
    double meanOnCycles = 300.0; ///< mean ON period (router cycles)
    double meanOffCycles = 600.0;///< mean OFF period (router cycles)

    /** Long-run fraction of time a source is ON. */
    double
    dutyCycle() const
    {
        return meanOnCycles / (meanOnCycles + meanOffCycles);
    }
};

/**
 * A bank of ON/OFF sources multiplexed onto one emission callback.
 *
 * The bank as a whole sustains `aggregateRate` packets per cycle in
 * expectation: each source's ON-state Poisson rate is
 * aggregateRate / (numSources * dutyCycle).
 *
 * Only emissions that will fire are queued: one that would land after
 * its ON period ends is drawn (so the shared RNG stream advances exactly
 * as if it were queued) but never scheduled.  Every pending emission
 * therefore fires inside its own ON period.
 *
 * The bank can be stopped (task completion in the two-level model); any
 * in-flight events then expire silently.
 */
class OnOffSourceBank
{
  public:
    /** Emission callback: one packet request now. */
    using EmitFn = std::function<void()>;

    /**
     * @param kernel event kernel
     * @param numSources sources multiplexed (paper: 128)
     * @param aggregateRate expected packets/cycle for the whole bank
     * @param params envelope distribution parameters
     * @param rng seeded engine (moved in; the bank owns its stream)
     * @param emit called once per generated packet
     */
    OnOffSourceBank(sim::Kernel &kernel, std::int32_t numSources,
                    double aggregateRate, const OnOffParams &params,
                    Rng rng, EmitFn emit);

    /** Begin: every source starts in OFF with a random residual delay. */
    void start();

    /** Stop emitting; pending events die off. */
    void stop() { stopped_ = true; }

    bool stopped() const { return stopped_; }

    /** Packets emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** ON-state per-source Poisson rate (packets/cycle). */
    double onRate() const { return onRate_; }

  private:
    void toggle(std::int32_t source, bool nowOn);
    void emitLoop(std::int32_t source);
    Tick cyclesToGap(double cycles) const;

    sim::Kernel &kernel_;
    std::int32_t numSources_;
    OnOffParams params_;
    double onRate_;
    double onLocation_;   ///< Pareto location for ON periods
    double offLocation_;  ///< Pareto location for OFF periods
    Rng rng_;
    EmitFn emit_;
    bool stopped_ = false;
    std::uint64_t emitted_ = 0;

    /** End tick of each source's current (or last) ON period. */
    std::vector<Tick> onUntil_;
};

} // namespace dvsnet::traffic
