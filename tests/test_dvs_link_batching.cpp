/**
 * @file
 * Randomized property test: the DVS channel against a per-flit
 * reference model.
 *
 * The reference re-implements the channel's semantics independently:
 * departures, arrival ticks, credit stalling, the transition state
 * machine's timing, busy-tick accounting and the utilization-window
 * formula, all computed directly from the parameters.  Random operation
 * sequences (send bursts, credits, speed/slow steps, window
 * checkpoints) are applied to both, and at every operation time:
 *
 *  - send() returns the reference departure and canAccept() agrees;
 *  - each sink holds exactly the reference's deliveries still in
 *    flight, in order, with their arrival ticks and payloads — a send
 *    lands in the sink at once, and the consumer pops what is due;
 *  - takeUtilizationWindow() values agree bit for bit.
 *
 * After the trial the flitsSent / transitions / disabledTime counters
 * agree.  Trials randomize the initial level and the voltage-transition
 * latency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <utility>

#include "link/dvs_link.hpp"
#include "sim/kernel.hpp"
#include "test_packets.hpp"

using dvsnet::Cycle;
using dvsnet::kTickNever;
using dvsnet::Tick;
using dvsnet::VcId;
using dvsnet::link::DvsChannel;
using dvsnet::link::DvsLevelTable;
using dvsnet::link::DvsLinkParams;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::sim::Kernel;

namespace
{

/**
 * Per-flit reference model of DvsChannel.  Transition phases are
 * tracked as explicit scheduled boundaries applied by advanceTo(), in
 * the order they were created (a speed-up's lock start precedes its
 * lock end precedes a ramp-down end), which mirrors the kernel-event
 * chain of the real channel exactly.
 */
struct RefChannel
{
    enum class St
    {
        Stable,
        VoltRampUp,
        FreqLock,
        VoltRampDown
    };

    const DvsLevelTable &table;
    Tick voltLat;
    Cycle freqCycles;
    Tick prop;

    St st = St::Stable;
    std::size_t level;
    std::size_t prevLevel;
    Tick period;
    Tick nextFree = 0;
    Tick disabledUntil = 0;

    Tick windowStart = 0;
    Tick busyTicks = 0;
    Tick disabledInWindow = 0;
    Tick disabledTime = 0;
    std::uint64_t flitsSent = 0;
    std::uint64_t transitions = 0;

    Tick lockStartAt = kTickNever;    ///< speed-up: voltage ramp end
    Tick lockEndAt = kTickNever;      ///< link functional again
    Tick rampDownEndAt = kTickNever;  ///< slow-down: voltage settled

    RefChannel(const DvsLevelTable &t, const DvsLinkParams &p)
        : table(t),
          voltLat(p.voltageTransitionLatency),
          freqCycles(p.freqTransitionLinkCycles),
          prop(p.propagationDelay),
          level(p.initialLevel),
          prevLevel(p.initialLevel),
          period(t.level(p.initialLevel).period)
    {}

    void
    advanceTo(Tick t)
    {
        if (lockStartAt != kTickNever && lockStartAt <= t) {
            const Tick at = lockStartAt;
            lockStartAt = kTickNever;
            beginLock(at);
        }
        if (lockEndAt != kTickNever && lockEndAt <= t) {
            const Tick at = lockEndAt;
            lockEndAt = kTickNever;
            if (level < prevLevel) {
                st = St::Stable;
                ++transitions;
            } else {
                st = St::VoltRampDown;
                rampDownEndAt = at + voltLat;
            }
        }
        if (rampDownEndAt != kTickNever && rampDownEndAt <= t) {
            rampDownEndAt = kTickNever;
            st = St::Stable;
            ++transitions;
        }
    }

    void
    beginLock(Tick now)
    {
        st = St::FreqLock;
        period = table.level(level).period;
        const Tick lockEnd =
            now + static_cast<Tick>(freqCycles) * period;
        disabledUntil = lockEnd;
        disabledTime += lockEnd - now;
        disabledInWindow += lockEnd - now;
        nextFree = std::max(nextFree, lockEnd);
        lockEndAt = lockEnd;
    }

    bool
    requestStep(bool faster, Tick now)
    {
        if (st != St::Stable || (faster && level == table.fastest()) ||
            (!faster && level == table.slowest()))
            return false;
        prevLevel = level;
        level = faster ? level - 1 : level + 1;
        if (faster) {
            // Voltage ramps first; the lock starts when it settles.
            st = St::VoltRampUp;
            lockStartAt = now + voltLat;
        } else {
            beginLock(now);
        }
        return true;
    }

    bool
    canAccept(Tick earliest) const
    {
        if (st == St::FreqLock)
            return false;
        return std::max(nextFree, earliest) <= earliest + period;
    }

    /** Returns (departure, arrival). */
    std::pair<Tick, Tick>
    send(Tick earliest)
    {
        const Tick departure = std::max(nextFree, earliest);
        nextFree = departure + period;
        busyTicks += period;
        ++flitsSent;
        return {departure, departure + period + prop};
    }

    /** Returns the credit's arrival. */
    Tick
    sendCredit(Tick now) const
    {
        return std::max(now, disabledUntil) + period + prop;
    }

    double
    takeUtilizationWindow(Tick now)
    {
        const Tick span = now - windowStart;
        Tick disabled = disabledInWindow;
        if (disabledUntil > now)
            disabled -= disabledUntil - now;
        double util = 0.0;
        if (span > disabled) {
            util = static_cast<double>(busyTicks) /
                   static_cast<double>(span - disabled);
            util = std::min(util, 1.0);
        }
        windowStart = now;
        busyTicks = 0;
        disabledInWindow = disabledUntil > now ? disabledUntil - now : 0;
        return util;
    }
};

/** A reference delivery still in flight: arrival tick + payload. */
template <typename T>
struct Pending
{
    Tick when;
    T item;
};

/**
 * Pop every delivery due at `now` from `sink` and `ref` alike, then
 * check that the sink holds exactly the reference's remaining ones.
 */
template <typename T, typename Want, typename Same>
void
checkSink(Inbox<T> &sink, std::deque<Pending<Want>> &ref, Tick now,
          Same same)
{
    while (!ref.empty() && ref.front().when <= now) {
        ASSERT_TRUE(sink.ready(now));
        ASSERT_TRUE(same(sink.pop(now), ref.front().item));
        ref.pop_front();
    }
    ASSERT_EQ(sink.size(), ref.size());
    ASSERT_EQ(sink.nextArrival(),
              ref.empty() ? kTickNever : ref.front().when);
}

/** One randomized trial driving channel and reference in lockstep. */
void
runTrial(std::uint64_t seed, const DvsLinkParams &params, int numOps)
{
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " initialLevel="
                 << params.initialLevel << " voltLat="
                 << params.voltageTransitionLatency);

    Kernel kernel;
    DvsLevelTable table = DvsLevelTable::standard10();
    Inbox<Flit> flitSink;
    Inbox<VcId> creditSink;
    DvsChannel channel(kernel, 0, table, params, nullptr);
    channel.connectFlitSink(&flitSink);
    channel.connectCreditSink(&creditSink);

    RefChannel ref(table, params);

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> opDist(0, 99);
    std::uniform_int_distribution<Tick> gapDist(0, 20000);
    std::uniform_int_distribution<int> burstDist(1, 8);
    std::uniform_int_distribution<int> vcDist(0, 3);

    std::deque<Pending<std::uint64_t>> refFlits;  // payload: packet id
    std::deque<Pending<VcId>> refCredits;
    dvsnet::testutil::TestPackets packets;
    const auto sameFlit = [&packets](const Flit &got, std::uint64_t id) {
        return packets.idOf(got) == id;
    };
    const auto sameVc = [](VcId got, VcId want) { return got == want; };

    Tick t = 0;
    for (int op = 0; op < numOps; ++op) {
        // Occasionally stay on the same tick to get same-time op mixes.
        if (opDist(rng) >= 10)
            t += gapDist(rng);
        kernel.run(t);
        ref.advanceTo(t);

        ASSERT_EQ(channel.currentPeriod(), ref.period);
        ASSERT_EQ(channel.canAccept(t), ref.canAccept(t));

        const int kind = opDist(rng);
        if (kind < 45) {
            // Burst of flits (skipped while the link is locking — the
            // router never sends into a disabled link).
            if (ref.st == RefChannel::St::FreqLock)
                continue;
            const int count = burstDist(rng);
            for (int i = 0; i < count; ++i) {
                const Flit f = packets.single();
                const Tick dep = channel.send(f, t);
                const auto [refDep, arrival] = ref.send(t);
                ASSERT_EQ(dep, refDep);
                refFlits.push_back({arrival, packets.idOf(f)});
            }
        } else if (kind < 75) {
            const VcId vc = vcDist(rng);
            channel.sendCredit(vc, t);
            refCredits.push_back({ref.sendCredit(t), vc});
        } else if (kind < 88) {
            const bool faster = (rng() & 1) != 0;
            const bool accepted = channel.requestStep(faster, t);
            ASSERT_EQ(accepted, ref.requestStep(faster, t));
        } else {
            const double got = channel.takeUtilizationWindow(t);
            const double want = ref.takeUtilizationWindow(t);
            ASSERT_EQ(got, want);  // same formula, bit-for-bit
        }
        checkSink(flitSink, refFlits, t, sameFlit);
        checkSink(creditSink, refCredits, t, sameVc);
    }

    // Let every transition complete, then drain the sinks.
    kernel.run();
    ref.advanceTo(kTickNever);  // apply the in-flight transition chain
    checkSink(flitSink, refFlits, kTickNever - 1, sameFlit);
    checkSink(creditSink, refCredits, kTickNever - 1, sameVc);
    EXPECT_TRUE(flitSink.empty());
    EXPECT_TRUE(creditSink.empty());

    EXPECT_EQ(channel.flitsSent(), ref.flitsSent);
    EXPECT_EQ(channel.transitions(), ref.transitions);
    EXPECT_EQ(channel.disabledTime(), ref.disabledTime);
}

} // namespace

TEST(DvsLinkBatching, MatchesPerFlitReferenceAcrossRandomTrials)
{
    // Short voltage ramps pack many full transitions (and the lock
    // windows between them) into each trial.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        DvsLinkParams p;
        p.voltageTransitionLatency = dvsnet::secondsToTicks(1e-6);
        p.initialLevel = static_cast<std::size_t>(seed % 10);
        runTrial(seed, p, 400);
    }
}

TEST(DvsLinkBatching, MatchesReferenceWithDefaultTransitionLatency)
{
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
        DvsLinkParams p;
        p.initialLevel = 9;  // slow start: long serialization, big leads
        runTrial(seed, p, 300);
    }
}
