/**
 * @file
 * ON/OFF source-bank tests: aggregate rate calibration, burstiness of
 * the aggregated process (the self-similarity proxy), stop semantics,
 * and a lockstep comparison against the epoch-based bank that queued
 * every drawn emission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/kernel.hpp"
#include "traffic/pareto_onoff.hpp"

using dvsnet::Cycle;
using dvsnet::kRouterClockPeriod;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::cyclesToTicks;
using dvsnet::sim::Kernel;
using dvsnet::traffic::OnOffParams;
using dvsnet::traffic::OnOffSourceBank;

TEST(OnOffParams, DutyCycleFromMeans)
{
    OnOffParams p;
    p.meanOnCycles = 300;
    p.meanOffCycles = 600;
    EXPECT_NEAR(p.dutyCycle(), 1.0 / 3.0, 1e-12);
}

TEST(OnOffBank, OnRateCalibration)
{
    Kernel kernel;
    OnOffParams p;  // duty 1/3 by default
    OnOffSourceBank bank(kernel, 128, 0.02, p, Rng(1), [] {});
    // onRate = aggregate / (sources * duty).
    EXPECT_NEAR(bank.onRate(), 0.02 / (128.0 / 3.0), 1e-9);
}

TEST(OnOffBank, AggregateRateNearTarget)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 64, 0.05, p, Rng(2),
                         [&] { ++emitted; });
    bank.start();
    const Cycle horizon = 400000;
    kernel.run(cyclesToTicks(horizon));
    const double expected = 0.05 * static_cast<double>(horizon);
    // Heavy-tailed envelopes converge slowly; allow 25%.
    EXPECT_NEAR(static_cast<double>(emitted), expected, expected * 0.25);
}

TEST(OnOffBank, StopHaltsEmission)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 32, 0.05, p, Rng(3), [&] { ++emitted; });
    bank.start();
    kernel.run(cyclesToTicks(50000));
    bank.stop();
    const std::uint64_t atStop = bank.emitted();
    kernel.run(cyclesToTicks(200000));
    EXPECT_EQ(bank.emitted(), atStop);
    EXPECT_EQ(emitted, atStop);
    EXPECT_TRUE(bank.stopped());
}

TEST(OnOffBank, AggregateIsBurstierThanPoisson)
{
    // Index of dispersion (var/mean of per-interval counts) over coarse
    // intervals: ~1 for Poisson, substantially larger for aggregated
    // heavy-tailed ON/OFF sources.  This is the property the paper's
    // workload model exists to provide.
    Kernel kernel;
    OnOffParams p;
    std::vector<std::uint64_t> counts;
    std::uint64_t current = 0;
    OnOffSourceBank bank(kernel, 16, 0.05, p, Rng(4), [&] { ++current; });
    bank.start();

    const Cycle interval = 1000;
    for (int i = 0; i < 400; ++i) {
        kernel.run(cyclesToTicks(static_cast<Cycle>(i + 1) * interval));
        counts.push_back(current);
        current = 0;
    }

    double mean = 0.0;
    for (auto c : counts)
        mean += static_cast<double>(c);
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (auto c : counts)
        var += (static_cast<double>(c) - mean) *
               (static_cast<double>(c) - mean);
    var /= static_cast<double>(counts.size());

    ASSERT_GT(mean, 10.0);  // enough traffic for the test to mean much
    EXPECT_GT(var / mean, 2.0);  // clearly super-Poisson
}

TEST(OnOffBank, DeterministicUnderSeed)
{
    std::vector<std::uint64_t> a, b;
    for (auto *log : {&a, &b}) {
        Kernel kernel;
        OnOffParams p;
        OnOffSourceBank bank(kernel, 16, 0.05, p, Rng(77),
                             [&] { log->push_back(kernel.now()); });
        bank.start();
        kernel.run(cyclesToTicks(50000));
    }
    EXPECT_EQ(a, b);
}

TEST(OnOffBank, EmittedCounterMatchesCallback)
{
    Kernel kernel;
    OnOffParams p;
    std::uint64_t emitted = 0;
    OnOffSourceBank bank(kernel, 16, 0.02, p, Rng(5), [&] { ++emitted; });
    bank.start();
    kernel.run(cyclesToTicks(100000));
    EXPECT_EQ(bank.emitted(), emitted);
    EXPECT_GT(emitted, 0u);
}

namespace
{

/**
 * Reference model: the epoch-based bank.  It queues every drawn
 * emission, and a stale one (drawn past its ON period) expires when it
 * fires by finding the source's ON epoch bumped.  Draw order and event
 * order are otherwise those of OnOffSourceBank, so the two must emit on
 * identical ticks.  It also counts the two boundary ties the skip rule
 * has to resolve exactly as the kernel's (tick, seq) order does.
 */
class EpochReferenceBank
{
  public:
    EpochReferenceBank(Kernel &kernel, std::int32_t numSources,
                       double aggregateRate, const OnOffParams &params,
                       Rng rng, std::function<void()> emit)
        : kernel_(kernel), numSources_(numSources), params_(params),
          rng_(rng), emit_(std::move(emit)),
          epoch_(static_cast<std::size_t>(numSources), 0),
          onUntil_(static_cast<std::size_t>(numSources), 0)
    {
        onRate_ = aggregateRate /
                  (static_cast<double>(numSources) * params.dutyCycle());
        onLocation_ = Rng::paretoLocationForMean(params.meanOnCycles,
                                                 params.onShape);
        offLocation_ = Rng::paretoLocationForMean(params.meanOffCycles,
                                                  params.offShape);
    }

    void
    start()
    {
        for (std::int32_t s = 0; s < numSources_; ++s)
            toggle(s, rng_.bernoulli(params_.dutyCycle()));
    }

    void stop() { stopped_ = true; }
    std::uint64_t emitted() const { return emitted_; }

    /** First emissions that fired on the ON period's last tick (queued
     *  before the toggle-off, so they emit). */
    std::uint64_t firstEmissionTies() const { return firstTies_; }

    /** Later emissions that landed on the ON period's last tick (queued
     *  after the toggle-off, so they expire). */
    std::uint64_t laterEmissionTies() const { return laterTies_; }

    /** Emissions that fired past their ON period before any stop(). */
    std::uint64_t expiredEmissions() const { return expired_; }

  private:
    Tick
    cyclesToGap(double cycles) const
    {
        const double ticks =
            cycles * static_cast<double>(kRouterClockPeriod);
        return std::max<Tick>(static_cast<Tick>(ticks + 0.5), 1);
    }

    void
    toggle(std::int32_t source, bool nowOn)
    {
        if (stopped_)
            return;
        const auto idx = static_cast<std::size_t>(source);
        ++epoch_[idx];
        if (nowOn) {
            const Tick len =
                cyclesToGap(rng_.pareto(onLocation_, params_.onShape));
            onUntil_[idx] = kernel_.now() + len;
            const std::uint32_t ep = epoch_[idx];
            kernel_.after(cyclesToGap(rng_.exponential(1.0 / onRate_)),
                          [this, source, ep] { emitLoop(source, ep); });
            kernel_.after(len, [this, source] { toggle(source, false); });
        } else {
            kernel_.after(
                cyclesToGap(rng_.pareto(offLocation_, params_.offShape)),
                [this, source] { toggle(source, true); });
        }
    }

    void
    emitLoop(std::int32_t source, std::uint32_t onEpoch)
    {
        if (stopped_)
            return;
        const auto idx = static_cast<std::size_t>(source);
        const bool onBoundary = kernel_.now() == onUntil_[idx];
        if (epoch_[idx] != onEpoch || kernel_.now() > onUntil_[idx]) {
            // Exactly one toggle (this period's toggle-off) since the
            // emission was queued: it was drawn onto the last tick.
            if (onBoundary && epoch_[idx] == onEpoch + 1)
                ++laterTies_;
            ++expired_;
            return;
        }
        if (onBoundary)
            ++firstTies_;
        emit_();
        ++emitted_;
        kernel_.after(cyclesToGap(rng_.exponential(1.0 / onRate_)),
                      [this, source, onEpoch] { emitLoop(source, onEpoch); });
    }

    Kernel &kernel_;
    std::int32_t numSources_;
    OnOffParams params_;
    double onRate_ = 0.0;
    double onLocation_ = 0.0;
    double offLocation_ = 0.0;
    Rng rng_;
    std::function<void()> emit_;
    bool stopped_ = false;
    std::uint64_t emitted_ = 0;
    std::uint64_t firstTies_ = 0;
    std::uint64_t laterTies_ = 0;
    std::uint64_t expired_ = 0;
    std::vector<std::uint32_t> epoch_;
    std::vector<Tick> onUntil_;
};

/** One randomized lockstep scenario. */
struct LockstepCase
{
    std::int32_t sources = 1;
    double rate = 0.0;
    OnOffParams params;
    std::uint64_t seed = 0;
    Tick horizon = 0;
    Tick stopTick = 0;            ///< 0 = no scheduled stop()
    std::uint64_t stopAfter = 0;  ///< stop() inside this emission; 0 = never
};

/** What a bank did under one case, as seen from outside it. */
struct LockstepTrace
{
    std::vector<Tick> emissionTicks;
    std::vector<std::uint64_t> probeLog;  ///< emitted() at every cycle
    std::uint64_t emitted = 0;
    std::uint64_t executedEvents = 0;
};

/** A bank on its own kernel, with a probe event every router cycle. */
template <typename Bank>
class LockstepRun
{
  public:
    explicit LockstepRun(const LockstepCase &c)
        : case_(c),
          bank_(kernel_, c.sources, c.rate, c.params, Rng(c.seed),
                [this] { onEmit(); })
    {}

    LockstepTrace
    run()
    {
        bank_.start();
        kernel_.at(kRouterClockPeriod, [this] { probe(); });
        if (case_.stopTick != 0)
            kernel_.at(case_.stopTick, [this] { bank_.stop(); });
        kernel_.run(case_.horizon);
        trace_.emitted = bank_.emitted();
        trace_.executedEvents = kernel_.executedEvents();
        return trace_;
    }

    const Bank &bank() const { return bank_; }

  private:
    void
    onEmit()
    {
        trace_.emissionTicks.push_back(kernel_.now());
        if (trace_.emissionTicks.size() == case_.stopAfter)
            bank_.stop();
    }

    void
    probe()
    {
        trace_.probeLog.push_back(bank_.emitted());
        kernel_.after(kRouterClockPeriod, [this] { probe(); });
    }

    LockstepCase case_;
    Kernel kernel_;
    Bank bank_;
    LockstepTrace trace_;
};

double
logUniform(Rng &rng, double lo, double hi)
{
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/**
 * Draw a case: 1-128 sources, 1e-3..10 pkt/cycle, ON/OFF means from 3
 * ticks to hundreds of cycles (short means make both ties frequent),
 * and a horizon sized to ~10k bank events.
 */
LockstepCase
drawCase(Rng &rng)
{
    LockstepCase c;
    c.sources = static_cast<std::int32_t>(
        std::lround(logUniform(rng, 1.0, 128.0)));
    c.rate = logUniform(rng, 1e-3, 10.0);
    c.params.meanOnCycles = logUniform(rng, 0.003, 300.0);
    c.params.meanOffCycles = logUniform(rng, 0.003, 600.0);
    c.seed = rng.next();
    const double eventsPerCycle =
        1.0 + c.rate +
        2.0 * c.sources / (c.params.meanOnCycles + c.params.meanOffCycles);
    const double cycles = std::clamp(1e4 / eventsPerCycle, 3.0, 2e4);
    c.horizon = static_cast<Tick>(cycles *
                                  static_cast<double>(kRouterClockPeriod));
    return c;
}

} // namespace

TEST(OnOffBankLockstep, MatchesEpochReferenceOverRandomMatrix)
{
    Rng rng(20240611);
    std::uint64_t firstTies = 0, laterTies = 0;
    std::uint64_t refEvents = 0, bankEvents = 0, expired = 0;
    std::uint64_t stopsOnEmissionTick = 0;
    for (int i = 0; i < 160; ++i) {
        LockstepCase c = drawCase(rng);

        // stop(): never, at a random tick, on the tick of an emission
        // the unstopped run makes (the stop event is queued first, so
        // it wins the tie), or from inside the K-th emission.
        const std::uint64_t mode = rng.uniformInt(std::uint64_t{4});
        if (mode != 0) {
            const LockstepTrace dry = LockstepRun<EpochReferenceBank>(c).run();
            if (mode == 1) {
                c.stopTick = 1 + rng.uniformInt(c.horizon);
            } else if (!dry.emissionTicks.empty()) {
                const std::size_t k = rng.uniformInt(
                    static_cast<std::uint64_t>(dry.emissionTicks.size()));
                if (mode == 2) {
                    c.stopTick = dry.emissionTicks[k];
                    ++stopsOnEmissionTick;
                } else {
                    c.stopAfter = k + 1;
                }
            }
        }

        SCOPED_TRACE(testing::Message()
                     << "case " << i << ": sources=" << c.sources
                     << " rate=" << c.rate
                     << " on=" << c.params.meanOnCycles
                     << " off=" << c.params.meanOffCycles
                     << " horizon=" << c.horizon
                     << " stopTick=" << c.stopTick
                     << " stopAfter=" << c.stopAfter);
        LockstepRun<EpochReferenceBank> ref(c);
        const LockstepTrace expected = ref.run();
        const LockstepTrace actual = LockstepRun<OnOffSourceBank>(c).run();

        EXPECT_EQ(actual.emissionTicks, expected.emissionTicks);
        EXPECT_EQ(actual.probeLog, expected.probeLog);
        EXPECT_EQ(actual.emitted, expected.emitted);
        EXPECT_EQ(actual.emitted, actual.emissionTicks.size());
        // None of the emissions the reference let expire was queued.
        EXPECT_GE(expected.executedEvents,
                  actual.executedEvents + ref.bank().expiredEmissions());

        firstTies += ref.bank().firstEmissionTies();
        laterTies += ref.bank().laterEmissionTies();
        expired += ref.bank().expiredEmissions();
        refEvents += expected.executedEvents;
        bankEvents += actual.executedEvents;
    }

    // Both boundary ties must have actually happened for the match
    // above to prove the tie rules.
    EXPECT_GT(firstTies, 0u);
    EXPECT_GT(laterTies, 0u);
    EXPECT_GT(stopsOnEmissionTick, 0u);
    EXPECT_GT(expired, 0u);
    EXPECT_LT(bankEvents, refEvents);
    RecordProperty("first_emission_ties", std::to_string(firstTies));
    RecordProperty("later_emission_ties", std::to_string(laterTies));
    RecordProperty("events_saved_frac",
                   std::to_string(1.0 - static_cast<double>(bankEvents) /
                                            static_cast<double>(refEvents)));
}
