#include "link/dvs_link.hpp"

#include <algorithm>

#include "common/fatal.hpp"

namespace dvsnet::link
{

DvsChannel::DvsChannel(sim::Kernel &kernel, std::size_t ledgerIndex,
                       const DvsLevelTable &table,
                       const DvsLinkParams &params,
                       power::EnergyLedger *ledger,
                       power::TransitionEnergyModel energyModel,
                       const power::LinkPowerModel *powerModel,
                       const router::PacketTable *packets)
    : kernel_(kernel),
      ledgerIndex_(ledgerIndex),
      table_(table),
      params_(params),
      ledger_(ledger),
      energyModel_(energyModel),
      defaultPowerModel_(table.coeffA(), table.coeffB()),
      powerModel_(powerModel != nullptr ? powerModel
                                        : &defaultPowerModel_),
      packets_(packets),
      chargeFlitEnergy_(powerModel_->chargesFlitEnergy() &&
                        ledger != nullptr),
      level_(params.initialLevel),
      prevLevel_(params.initialLevel)
{
    DVSNET_ASSERT(params.initialLevel < table.size(),
                  "initial level out of range");
    DVSNET_ASSERT(params.freqTransitionLinkCycles > 0,
                  "frequency lock must take at least one cycle");
    DVSNET_ASSERT(!chargeFlitEnergy_ || packets != nullptr,
                  "a per-flit power backend needs the packet table");
    const DvsLevel &lvl = table.level(level_);
    period_ = lvl.period;
    voltage_ = lvl.voltage;
    windowStart_ = kernel.now();
    nextFree_ = kernel.now();
    setOperatingPower(kernel.now(), voltage_, lvl.frequencyHz);
}

void
DvsChannel::attachObservability(CounterRegistry *registry)
{
    if (registry == nullptr) {
        ctrStepsStarted_ = nullptr;
        ctrStepsCompleted_ = nullptr;
        ctrStepsRejected_ = nullptr;
        ctrFlitsSent_ = nullptr;
        ctrFlitBursts_ = nullptr;
        seqAssert_ = nullptr;
        return;
    }
    ctrStepsStarted_ = &registry->counter("dvs.steps_started");
    ctrStepsCompleted_ = &registry->counter("dvs.steps_completed");
    ctrStepsRejected_ = &registry->counter("dvs.steps_rejected");
    ctrFlitsSent_ = &registry->counter("link.flits_sent");
    ctrFlitBursts_ = &registry->counter("link.flit_bursts");
    seqAssert_ = &registry->invariant("dvs.transition_sequencing");
}

void
DvsChannel::connectFlitSink(router::Inbox<router::Flit> *sink)
{
    flitSink_ = sink;
}

void
DvsChannel::connectCreditSink(router::Inbox<VcId> *sink)
{
    creditSink_ = sink;
}

void
DvsChannel::setOperatingPower(Tick now, double voltage, double frequencyHz)
{
    if (ledger_ == nullptr)
        return;
    const double perLink = powerModel_->operatingPowerW(voltage,
                                                        frequencyHz);
    ledger_->setChannelPower(
        ledgerIndex_,
        perLink * static_cast<double>(params_.linksPerChannel), now);
}

bool
DvsChannel::canAccept(Tick earliest) const
{
    if (state_ == State::FreqLock)
        return false;
    // Accept while the channel is not backed up: the next departure for a
    // flit ready at `earliest` must begin within one serialization slot.
    return std::max(nextFree_, earliest) <= earliest + period_;
}

Tick
DvsChannel::send(const router::Flit &flit, Tick earliest)
{
    DVSNET_ASSERT(state_ != State::FreqLock,
                  "send on a disabled (locking) link");
    DVSNET_ASSERT(flitSink_ != nullptr, "flit sink not connected");

    const Tick departure = std::max(nextFree_, earliest);
    // A burst continues only while serialization is back-to-back at one
    // frequency level; a gap or a mid-flight requestStep (period_
    // change, possibly with a lock pushing nextFree_ out) splits it.
    if (departure != burstNextDeparture_ || period_ != burstPeriod_) {
        ++flitBursts_;
        if (ctrFlitBursts_ != nullptr)
            ++*ctrFlitBursts_;
        burstPeriod_ = period_;
    }
    nextFree_ = departure + period_;
    burstNextDeparture_ = nextFree_;
    busyTicks_ += period_;
    ++flitsSent_;
    if (ctrFlitsSent_ != nullptr)
        ++*ctrFlitsSent_;

    // Data-dependent backends charge a per-flit energy pulse from the
    // toggle activity between consecutive payload words.  The router
    // loop issues sends in a fixed serial order, so prevPayload_ — and
    // every pulse — is reproducible per seed.
    if (chargeFlitEnergy_) {
        const std::uint64_t payload =
            power::flitPayloadWord(packets_->at(flit.slot).id, flit.seq);
        ledger_->addFlitEnergy(
            ledgerIndex_,
            powerModel_->flitEnergyJ(payload, prevPayload_, voltage_));
        prevPayload_ = payload;
    }

    // Serialization (one link cycle) + fixed wire propagation; the
    // inbox hands the flit out from its arrival on.
    flitSink_->push(departure + period_ + params_.propagationDelay, flit);
    return departure;
}

void
DvsChannel::sendCredit(VcId vc, Tick now)
{
    DVSNET_ASSERT(creditSink_ != nullptr, "credit sink not connected");
    // Sideband: one link cycle of the reverse path plus wire flight;
    // stalled while the receiver re-locks.
    creditSink_->push(std::max(now, disabledUntil_) + period_ +
                          params_.propagationDelay,
                      vc);
}

bool
DvsChannel::requestStep(bool faster, Tick now)
{
    if (state_ != State::Stable || (faster && level_ == table_.fastest()) ||
        (!faster && level_ == table_.slowest())) {
        if (ctrStepsRejected_ != nullptr)
            ++*ctrStepsRejected_;
        return false;
    }

    prevLevel_ = level_;
    level_ = faster ? level_ - 1 : level_ + 1;
    if (ctrStepsStarted_ != nullptr)
        ++*ctrStepsStarted_;
    if (seqAssert_ != nullptr) {
        seqAssert_->check(level_ + 1 == prevLevel_ || level_ == prevLevel_ + 1,
                          "non-adjacent level step ", prevLevel_, " -> ",
                          level_);
    }
    const DvsLevel &from = table_.level(prevLevel_);
    const DvsLevel &to = table_.level(level_);

    if (ledger_ != nullptr) {
        ledger_->addTransitionEnergy(
            ledgerIndex_,
            energyModel_.transitionEnergy(from.voltage, to.voltage));
    }

    if (faster) {
        // Voltage first (functional at the old frequency, new voltage
        // drawn from the regulator as it ramps — account at the higher,
        // i.e. new, voltage), then the frequency lock.
        state_ = State::VoltRampUp;
        voltage_ = to.voltage;
        setOperatingPower(now, to.voltage, from.frequencyHz);
        kernel_.at(now + params_.voltageTransitionLatency,
                   [this] { beginFreqLock(kernel_.now()); });
    } else {
        // Frequency lock first (link disabled), then the voltage ramp
        // down (functional; accounted at the old, higher voltage until
        // the ramp settles).
        beginFreqLock(now);
    }
    return true;
}

void
DvsChannel::beginFreqLock(Tick now)
{
    const DvsLevel &to = table_.level(level_);
    if (seqAssert_ != nullptr) {
        // Paper ordering: when speeding up, the voltage ramp must have
        // run first (we arrive here from VoltRampUp); when slowing
        // down, the lock comes first (straight from Stable).
        const bool speedup = level_ < prevLevel_;
        seqAssert_->check(
            speedup ? state_ == State::VoltRampUp : state_ == State::Stable,
            "frequency lock entered from state ", static_cast<int>(state_),
            " for a ", speedup ? "speed-up" : "slow-down", " step");
    }
    state_ = State::FreqLock;
    period_ = to.period;
    const Tick lockEnd =
        now + params_.freqTransitionLinkCycles * to.period;
    disabledUntil_ = lockEnd;
    disabledTime_ += lockEnd - now;
    disabledInWindow_ += lockEnd - now;
    nextFree_ = std::max(nextFree_, lockEnd);
    // While locking, the receiver clocks at the new frequency; voltage is
    // whatever the regulator currently supplies (already-new on the way
    // up, still-old on the way down).
    setOperatingPower(now, voltage_, to.frequencyHz);

    const bool wasSpeedup = level_ < prevLevel_;
    kernel_.at(lockEnd, [this, wasSpeedup] {
        const Tick t = kernel_.now();
        const DvsLevel &target = table_.level(level_);
        if (seqAssert_ != nullptr) {
            seqAssert_->check(state_ == State::FreqLock,
                              "lock completion in state ",
                              static_cast<int>(state_));
        }
        // The link is functional again (either stable or ramping down).
        if (wasSpeedup) {
            // Voltage already settled; the transition is complete.
            state_ = State::Stable;
            voltage_ = target.voltage;
            setOperatingPower(t, voltage_, target.frequencyHz);
            ++transitions_;
            if (ctrStepsCompleted_ != nullptr)
                ++*ctrStepsCompleted_;
        } else {
            // Frequency settled; ramp the voltage down.
            state_ = State::VoltRampDown;
            setOperatingPower(t, voltage_, target.frequencyHz);
            kernel_.at(t + params_.voltageTransitionLatency, [this] {
                const Tick tt = kernel_.now();
                const DvsLevel &lvl = table_.level(level_);
                if (seqAssert_ != nullptr) {
                    seqAssert_->check(state_ == State::VoltRampDown,
                                      "ramp-down completion in state ",
                                      static_cast<int>(state_));
                }
                state_ = State::Stable;
                voltage_ = lvl.voltage;
                setOperatingPower(tt, voltage_, lvl.frequencyHz);
                ++transitions_;
                if (ctrStepsCompleted_ != nullptr)
                    ++*ctrStepsCompleted_;
            });
        }
    });
}

double
DvsChannel::takeUtilizationWindow(Tick now)
{
    // Normalize by *enabled* link time: while the receiver is locking
    // there are no valid link clock cycles, so Eq. 2's denominator (link
    // clock cycles in the window) must exclude the disabled span —
    // otherwise every transition injects a spurious near-zero LU sample
    // that drags the EWMA down and thrashes the policy.
    const Tick span = now - windowStart_;
    Tick disabled = disabledInWindow_;
    if (disabledUntil_ > now)
        disabled -= disabledUntil_ - now;  // carried into the next window
    double util = 0.0;
    if (span > disabled) {
        util = static_cast<double>(busyTicks_) /
               static_cast<double>(span - disabled);
        util = std::min(util, 1.0);
    }
    windowStart_ = now;
    busyTicks_ = 0;
    disabledInWindow_ = disabledUntil_ > now ? disabledUntil_ - now : 0;
    return util;
}

} // namespace dvsnet::link
