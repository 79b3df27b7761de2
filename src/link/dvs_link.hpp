/**
 * @file
 * DVS channel model (Section 2).
 *
 * A channel bundles kLinksPerChannel serial links that share an adaptive
 * power-supply regulator and are scaled together by the output port's DVS
 * controller (Fig. 6: "tracking and controlling the multiple links of
 * that port").  Behavior per the paper:
 *
 *  - ten discrete frequency/voltage levels, transitions between
 *    *adjacent* levels only;
 *  - speeding up: the voltage ramps first (link functional at the old
 *    frequency), then the frequency re-locks;
 *  - slowing down: the frequency re-locks first, then the voltage ramps;
 *  - the link is functional during voltage ramps but *disabled* while the
 *    receiver locks to the new clock (frequency transition);
 *  - voltage ramp latency defaults to 10 us per adjacent step, frequency
 *    lock to 100 link clock cycles (of the new frequency);
 *  - each voltage ramp costs (1-eta)*C*|V2^2-V1^2| overhead energy.
 *
 * Timing model: a flit occupies the channel for one link clock period
 * (serialization; the 8 links x 4:1 mux carry one 32-bit flit per link
 * cycle) and lands in the downstream inbox one further period later
 * (propagation).  Credits for the reverse flow ride this channel as
 * sideband and take one period, also stalling during frequency locks —
 * this is how a slowed link stretches the credit turnaround the paper
 * points to for throughput degradation.
 *
 * Delivery: each send computes its exact arrival tick as above and
 * pushes the flit (or credit) straight into the downstream inbox, which
 * hands it out from that tick on; no kernel event carries a delivery.
 * The receiving router learns when it is next due from the push
 * (Router::setWakeHook).  Contiguous back-to-back serialization at one
 * frequency level counts as one burst (`link.flit_bursts`); a burst
 * splits when `requestStep` changes `period_` mid-flight or the sender
 * leaves a serialization gap.
 */

#pragma once

#include <cstdint>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "link/dvs_level.hpp"
#include "power/energy_ledger.hpp"
#include "power/link_power.hpp"
#include "power/power_model.hpp"
#include "router/inbox.hpp"
#include "router/link_iface.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::link
{

/** Tunable DVS link characteristics (swept in Figs. 16-17). */
struct DvsLinkParams
{
    /** Voltage ramp latency per adjacent level step (default 10 us). */
    Tick voltageTransitionLatency = secondsToTicks(10e-6);

    /** Frequency re-lock duration in link clock cycles (new frequency). */
    Cycle freqTransitionLinkCycles = 100;

    /** Initial operating level (0 = fastest). */
    std::size_t initialLevel = 0;

    /** Serial links ganged in this channel. */
    std::size_t linksPerChannel = kLinksPerChannel;

    /**
     * Wire propagation delay (fixed — physical flight time does not
     * scale with the link clock; only serialization does).  Default one
     * router cycle.
     */
    Tick propagationDelay = kRouterClockPeriod;
};

/** One DVS-scaled channel: flit data path + reverse-flow credit sideband. */
class DvsChannel final : public router::FlitChannel,
                         public router::CreditChannel
{
  public:
    /** Transition state machine. */
    enum class State
    {
        Stable,        ///< operating at `level()`
        VoltRampUp,    ///< voltage rising; functional at old frequency
        FreqLock,      ///< receiver locking; link disabled
        VoltRampDown,  ///< voltage falling; functional at new frequency
    };

    /**
     * @param kernel event kernel for transition scheduling
     * @param ledgerIndex this channel's slot in the energy ledger
     * @param table operating-point table (caller-owned, outlives us)
     * @param params transition characteristics
     * @param ledger energy ledger (may be nullptr in unit tests)
     * @param energyModel regulator transition-energy model
     * @param powerModel link power backend (shared, caller-owned,
     *        outlives us); nullptr selects a table backend fitted to
     *        `table`, reproducing the pre-seam numbers bit-identically
     * @param packets packet table the sent flits' slots index
     *        (caller-owned, outlives us); read only for the packet id a
     *        per-flit charging backend hashes, and required then
     */
    DvsChannel(sim::Kernel &kernel, std::size_t ledgerIndex,
               const DvsLevelTable &table, const DvsLinkParams &params,
               power::EnergyLedger *ledger,
               power::TransitionEnergyModel energyModel = {},
               const power::LinkPowerModel *powerModel = nullptr,
               const router::PacketTable *packets = nullptr);

    /**
     * Register this channel's counters and the transition-sequencing
     * invariant into `registry` (shared across channels; nullptr
     * detaches).  The invariant enforces the paper's legality rules:
     * steps move between adjacent levels only, start from a stable
     * channel, ramp voltage before the frequency lock when speeding up
     * and lock frequency before the ramp when slowing down.
     */
    void attachObservability(CounterRegistry *registry);

    /** Attach the downstream router's flit inbox. */
    void connectFlitSink(router::Inbox<router::Flit> *sink);

    /** Attach the upstream router's credit inbox (for the reverse flow). */
    void connectCreditSink(router::Inbox<VcId> *sink);

    // FlitChannel
    bool canAccept(Tick earliest) const override;
    Tick send(const router::Flit &flit, Tick earliest) override;

    // CreditChannel
    void sendCredit(VcId vc, Tick now) override;

    /** Current base level (the target level once a transition completes). */
    std::size_t level() const { return level_; }

    /** Operating-point table this channel scales over. */
    const DvsLevelTable &table() const { return table_; }

    /** True when no transition is in progress. */
    bool stable() const { return state_ == State::Stable; }

    State state() const { return state_; }

    /** Current link clock period. */
    Tick currentPeriod() const { return period_; }

    /** Current supply voltage (transitions settle at completion). */
    double currentVoltage() const { return voltage_; }

    /**
     * Begin a one-step transition (faster = toward level 0).  Returns
     * false if a transition is already in progress or the channel is at
     * the boundary level.
     */
    bool requestStep(bool faster, Tick now);

    /**
     * Link-utilization window (Eq. 2): fraction of link time spent
     * serializing flits since the previous call; resets the window.
     */
    double takeUtilizationWindow(Tick now);

    /** Flits sent in total. */
    std::uint64_t flitsSent() const { return flitsSent_; }

    /** Completed level transitions. */
    std::uint64_t transitions() const { return transitions_; }

    /** Ticks the channel has spent disabled (frequency locks). */
    Tick disabledTime() const { return disabledTime_; }

    /** Contiguous same-level serialization bursts started. */
    std::uint64_t flitBursts() const { return flitBursts_; }

  private:
    void setOperatingPower(Tick now, double voltage, double frequencyHz);
    void beginFreqLock(Tick now);

    sim::Kernel &kernel_;
    std::size_t ledgerIndex_;
    const DvsLevelTable &table_;
    DvsLinkParams params_;
    power::EnergyLedger *ledger_;
    power::TransitionEnergyModel energyModel_;
    power::TableLinkPowerModel defaultPowerModel_;  ///< nullptr fallback
    const power::LinkPowerModel *powerModel_;
    const router::PacketTable *packets_;  ///< for per-flit payload words
    bool chargeFlitEnergy_;       ///< cached: backend charges + ledger set
    std::uint64_t prevPayload_ = 0;  ///< last payload word carried

    router::Inbox<router::Flit> *flitSink_ = nullptr;
    router::Inbox<VcId> *creditSink_ = nullptr;

    // Cached observability slots (null when no registry is attached).
    std::uint64_t *ctrStepsStarted_ = nullptr;
    std::uint64_t *ctrStepsCompleted_ = nullptr;
    std::uint64_t *ctrStepsRejected_ = nullptr;
    std::uint64_t *ctrFlitsSent_ = nullptr;
    SimAssert *seqAssert_ = nullptr;

    State state_ = State::Stable;
    std::size_t level_;         ///< settled level (target during transition)
    std::size_t prevLevel_;     ///< level before the in-flight transition
    Tick period_;               ///< operational link period
    double voltage_;            ///< accounting voltage (ramps settle late)
    Tick nextFree_ = 0;         ///< serialization availability
    Tick disabledUntil_ = 0;    ///< end of the current frequency lock

    // Serialization bursts (see the file comment).
    Tick burstPeriod_ = 0;               ///< period of the current burst
    Tick burstNextDeparture_ = kTickNever;  ///< contiguity watermark
    std::uint64_t flitBursts_ = 0;
    std::uint64_t *ctrFlitBursts_ = nullptr;

    Tick windowStart_ = 0;
    Tick busyTicks_ = 0;
    Tick disabledInWindow_ = 0;  ///< lock time charged to this window
    std::uint64_t flitsSent_ = 0;
    std::uint64_t transitions_ = 0;
    Tick disabledTime_ = 0;
};

} // namespace dvsnet::link
