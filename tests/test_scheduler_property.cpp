/**
 * @file
 * Randomized property test for the EventQueue against a reference model
 * that keeps events in an ordered map keyed by (tick, insertion
 * sequence).
 *
 * Interleaved schedule/execute sequences must produce identical firing
 * order, including same-tick FIFO.  Three workload shapes: a mixed shape
 * whose tick gaps span same-tick, short, medium and far-future ranges; a
 * link-clock-heavy shape whose gaps are multiples of the DVS link
 * periods (many channels serializing at the slow levels), which piles
 * events into few distinct ticks; and an ON/OFF-bank shape that holds
 * ~13k pending events with long exponential gaps, as the traffic
 * generator's bare kernel does, so the queue re-files deep buckets while
 * ties on router-clock edges and events at the current tick keep FIFO
 * order in play.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::kTickNever;
using dvsnet::sim::EventQueue;

namespace
{

/**
 * Reference model: an ordered map keyed by (when, insertion sequence) —
 * trivially correct FIFO semantics.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, std::uint64_t payload)
    {
        entries_.emplace(std::pair{when, nextSeq_++}, payload);
    }

    bool empty() const { return entries_.empty(); }

    Tick
    nextTick() const
    {
        return entries_.empty() ? kTickNever : entries_.begin()->first.first;
    }

    /** Pop the earliest entry; returns (when, payload). */
    std::pair<Tick, std::uint64_t>
    executeNext()
    {
        EXPECT_FALSE(entries_.empty());
        const auto it = entries_.begin();
        const std::pair<Tick, std::uint64_t> out{it->first.first,
                                                 it->second};
        entries_.erase(it);
        return out;
    }

  private:
    std::map<std::pair<Tick, std::uint64_t>, std::uint64_t> entries_;
    std::uint64_t nextSeq_ = 0;
};

enum class Workload
{
    Mixed,          ///< gaps from same-tick to far future
    LinkClockHeavy  ///< gaps in DVS link-period multiples, few ticks
};

/** Mixed shape (1,000 ticks = one router cycle): 0 (same-tick FIFO),
 *  within a cycle, up to four cycles, up to 200 cycles, and 10-500 us
 *  ahead, as voltage ramps and task lifetimes are. */
Tick
drawMixedGap(Rng &rng)
{
    switch (rng.uniformInt(0, 4)) {
      case 0: return 0;
      case 1: return static_cast<Tick>(rng.uniformInt(1, 63));
      case 2: return static_cast<Tick>(rng.uniformInt(64, 4096));
      case 3: return static_cast<Tick>(rng.uniformInt(4096, 200000));
      default:
        return static_cast<Tick>(rng.uniformInt(1, 50)) * 10'000'000;
    }
}

/** Link-clock-heavy shape: serialization slots of the slow DVS levels
 *  (8000/4000/2000-tick periods) across many concurrent channels, plus
 *  frequent zero gaps — deliveries from parallel links constantly land
 *  on coinciding ticks. */
Tick
drawLinkClockGap(Rng &rng)
{
    static constexpr Tick kPeriods[] = {8000, 4000, 2000, 1000};
    if (rng.uniformInt(0, 3) == 0)
        return 0;  // another channel delivering at the same edge
    const Tick period =
        kPeriods[static_cast<std::size_t>(rng.uniformInt(0, 3))];
    return period * static_cast<Tick>(rng.uniformInt(1, 16));
}

Tick
drawGap(Rng &rng, Workload shape)
{
    return shape == Workload::Mixed ? drawMixedGap(rng)
                                    : drawLinkClockGap(rng);
}

/** Drain both queues completely and compare the full firing tail. */
void
drainBoth(EventQueue &queue, ReferenceQueue &ref,
          const std::vector<std::uint64_t> &gotFired)
{
    while (!ref.empty()) {
        ASSERT_FALSE(queue.empty());
        const Tick when = queue.executeNext();
        const auto [refWhen, refPayload] = ref.executeNext();
        ASSERT_EQ(when, refWhen);
        ASSERT_EQ(gotFired.back(), refPayload);
    }
    EXPECT_TRUE(queue.empty());
}

void
runInterleaved(std::uint64_t seed, int ops, Workload shape)
{
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " workload="
                 << (shape == Workload::Mixed ? "mixed" : "link-clock"));

    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;

    std::vector<std::uint64_t> gotFired;  // payloads in firing order
    Tick now = 0;  // monotone: events are never scheduled into the past
    std::uint64_t nextPayload = 0;

    for (int op = 0; op < ops; ++op) {
        if (rng.uniformInt(0, 9) < 6 || queue.empty()) {
            // Schedule (biased, so the queue grows to a few hundred).
            const Tick when = now + drawGap(rng, shape);
            const std::uint64_t payload = nextPayload++;
            queue.schedule(when, [&gotFired, payload] {
                gotFired.push_back(payload);
            });
            ref.schedule(when, payload);
        } else {
            // Execute the earliest event in both queues.
            ASSERT_FALSE(ref.empty());
            EXPECT_EQ(queue.nextTick(), ref.nextTick());
            const Tick when = queue.executeNext();
            const auto [refWhen, refPayload] = ref.executeNext();
            EXPECT_EQ(when, refWhen);
            ASSERT_FALSE(gotFired.empty());
            EXPECT_EQ(gotFired.back(), refPayload);
            EXPECT_GE(when, now);
            now = when;
        }
        EXPECT_EQ(queue.empty(), ref.empty());
        EXPECT_EQ(queue.size() == 0, ref.empty());
    }

    drainBoth(queue, ref, gotFired);
}

} // namespace

TEST(SchedulerProperty, MatchesReferenceAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        runInterleaved(seed * 7919, 2000, Workload::Mixed);
}

TEST(SchedulerProperty, LinkClockHeavyWorkloadMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        runInterleaved(seed * 104729, 2000, Workload::LinkClockHeavy);
}

namespace
{

/**
 * ON/OFF-bank shape: the next toggle or emission of one source.  Gaps
 * are exponential with a mean of 450k ticks (450 router cycles); 1 in 8
 * lands on the next 1,000-tick router edge, so ties occur, and 1 in 16
 * is at the current tick.
 */
Tick
drawOnOffTick(Rng &rng, Tick now)
{
    if (rng.uniformInt(0, 15) == 0)
        return now;
    const Tick when =
        now + std::max<Tick>(1, static_cast<Tick>(rng.exponential(4.5e5)));
    if (rng.uniformInt(0, 7) == 0)
        return (when / 1000 + 1) * 1000;
    return when;
}

/** Hold ~`depth` pending events: each execution schedules a successor,
 *  and 1 in 64 schedules two or none, so the depth drifts. */
void
runOnOffBank(std::uint64_t seed, int depth, int ops)
{
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);

    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;
    std::vector<std::uint64_t> gotFired;
    Tick now = 0;
    std::uint64_t nextPayload = 0;
    const auto scheduleOne = [&] {
        const Tick when = drawOnOffTick(rng, now);
        const std::uint64_t payload = nextPayload++;
        queue.schedule(when,
                       [&gotFired, payload] { gotFired.push_back(payload); });
        ref.schedule(when, payload);
    };

    for (int i = 0; i < depth; ++i)
        scheduleOne();
    for (int op = 0; op < ops; ++op) {
        ASSERT_EQ(queue.nextTick(), ref.nextTick());
        const Tick when = queue.executeNext();
        const auto [refWhen, refPayload] = ref.executeNext();
        ASSERT_EQ(when, refWhen);
        ASSERT_EQ(gotFired.back(), refPayload);
        now = when;
        const auto fanout = rng.uniformInt(0, 127);
        if (fanout != 0)
            scheduleOne();
        if (fanout == 1)
            scheduleOne();
        ASSERT_EQ(queue.size() == 0, ref.empty());
    }
    drainBoth(queue, ref, gotFired);
}

} // namespace

TEST(SchedulerProperty, OnOffBankWorkloadMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runOnOffBank(seed * 15485863, 13000, 40000);
}

TEST(SchedulerProperty, SameTickFifoAcrossInterleavedExecution)
{
    // Events at one tick, scheduled before and after other events
    // execute (one of them at that same tick), must still fire in
    // insertion order.
    EventQueue q;
    std::vector<int> order;

    const Tick target = 1'000'000;
    q.schedule(target, [&order] { order.push_back(0); });
    q.schedule(1, [] {});
    q.schedule(target, [&order] { order.push_back(1); });
    q.executeNext();  // fires tick 1
    q.schedule(target, [&order] { order.push_back(2); });
    q.executeNext();  // fires the first target event
    q.schedule(target, [&order] { order.push_back(3); });
    while (!q.empty())
        q.executeNext();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}
