/**
 * @file
 * Randomized property test for the EventQueue heap against a reference
 * model that finds the earliest event by exhaustive scan.
 *
 * Interleaved schedule/execute sequences must produce identical firing
 * order, including same-tick FIFO.  Two workload shapes: a mixed shape
 * whose tick gaps span same-tick, short, medium and far-future ranges,
 * and a link-clock-heavy shape whose gaps are multiples of the DVS link
 * periods (many channels serializing at the slow levels), which piles
 * events into few distinct ticks, so the heap's order among equal ticks
 * rests on the insertion sequence alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
 * Reference model: a flat list ordered by exhaustive min-scan over
 * (when, seq) — trivially correct FIFO semantics.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, std::uint64_t payload)
    {
        entries_.push_back(Entry{when, nextSeq_++, payload, true});
    }

    bool
    empty() const
    {
        return std::none_of(entries_.begin(), entries_.end(),
                            [](const Entry &e) { return e.live; });
    }

    Tick
    nextTick() const
    {
        const Entry *best = minLive();
        return best == nullptr ? kTickNever : best->when;
    }

    /** Pop the earliest live entry; returns (when, payload). */
    std::pair<Tick, std::uint64_t>
    executeNext()
    {
        Entry *best = const_cast<Entry *>(minLive());
        EXPECT_NE(best, nullptr);
        best->live = false;
        return {best->when, best->payload};
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t payload;
        bool live;
    };

    const Entry *
    minLive() const
    {
        const Entry *best = nullptr;
        for (const Entry &e : entries_) {
            if (e.live &&
                (best == nullptr || e.when < best->when ||
                 (e.when == best->when && e.seq < best->seq)))
                best = &e;
        }
        return best;
    }

    std::vector<Entry> entries_;
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
            // Schedule (biased, so the heap grows to a few hundred).
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

    // Drain both queues completely and compare the full firing tail.
    while (!ref.empty()) {
        ASSERT_FALSE(queue.empty());
        const Tick when = queue.executeNext();
        const auto [refWhen, refPayload] = ref.executeNext();
        EXPECT_EQ(when, refWhen);
        EXPECT_EQ(gotFired.back(), refPayload);
        now = when;
    }
    EXPECT_TRUE(queue.empty());
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
