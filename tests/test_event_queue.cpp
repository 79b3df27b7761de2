/**
 * @file
 * Event-queue tests: temporal ordering, same-tick FIFO determinism,
 * ticks at the ends of the 64-bit range and the storage bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using dvsnet::InlineFn;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::kTickNever;
using dvsnet::sim::EventQueue;

// Queue entries hold their callbacks in place and move them as bytes.
static_assert(std::is_trivially_copyable_v<InlineFn>);
static_assert(sizeof(InlineFn) == 24);
static_assert(sizeof(EventQueue::Event) == 32);

TEST(EventQueue, EmptyByDefault)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kTickNever);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ExecuteNextReturnsTick)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.executeNext(), Tick{42});
}

TEST(EventQueue, NextTickPeeks)
{
    EventQueue q;
    q.schedule(7, [] {});
    q.schedule(3, [] {});
    EXPECT_EQ(q.nextTick(), Tick{3});
    EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] {
        ++count;
        q.schedule(2, [&] { ++count; });
    });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ExecutedCountAccumulates)
{
    EventQueue q;
    for (Tick t = 0; t < 5; ++t)
        q.schedule(t, [] {});
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(q.executedCount(), 5u);
}

TEST(EventQueue, SameTickFifoAcrossChunkBoundaries)
{
    // 200 events at one tick span four chunks; each of the first 100
    // schedules one more at that tick while they drain, so appends land
    // behind the head chunk being read.
    struct State
    {
        EventQueue q;
        std::vector<int> order;
    } st;
    const Tick target = 5000;
    st.q.schedule(1, [] {});
    for (int i = 0; i < 200; ++i) {
        st.q.schedule(target, [&st, i] {
            st.order.push_back(i);
            if (i < 100)
                st.q.schedule(st.q.baseTick(), [&st, i] {
                    st.order.push_back(200 + i);
                });
        });
    }
    EXPECT_EQ(st.q.executeNext(), Tick{1});
    while (!st.q.empty())
        EXPECT_EQ(st.q.executeNext(), target);
    ASSERT_EQ(st.order.size(), 300u);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(st.order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, TicksAtTheEndsOfTheRangeFireInOrder)
{
    // Ticks that differ only in bit 63, and ticks just below
    // kTickNever, land in the top bucket and are re-filed from there.
    const Tick top = Tick{1} << 63;
    const std::vector<Tick> ticks = {
        kTickNever - 1, top | 5, 5,       kTickNever - 2,
        top,            7,       top | 5, kTickNever - 1,
        kTickNever - 3, top | 4, kTickNever - 2};
    EventQueue q;
    std::vector<std::size_t> fired;
    for (std::size_t i = 0; i < ticks.size(); ++i)
        q.schedule(ticks[i], [&fired, i] { fired.push_back(i); });
    std::vector<std::size_t> want(ticks.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = i;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::size_t a, std::size_t b) {
                         return ticks[a] < ticks[b];
                     });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, want);
    EXPECT_EQ(q.baseTick(), kTickNever - 1);
}

namespace
{

/** Far events plus a chain of near ones stepping past them. */
struct FarNear
{
    static constexpr Tick kFar = Tick{1} << 40;
    static constexpr Tick kStep = kFar / 3 + 1;  // lands on 3 * kFar + 6
    static constexpr int kSteps = 30;

    EventQueue q;
    std::vector<Tick> fired;
    int stepsLeft = kSteps;

    /** One chain step: record the tick, schedule the next. */
    struct Step
    {
        FarNear *st;
        void
        operator()() const
        {
            const Tick now = st->q.baseTick();
            st->fired.push_back(now);
            if (--st->stepsLeft > 0)
                st->q.schedule(now + kStep, Step{st});
        }
    };
};

} // namespace

TEST(EventQueue, FarAndNearEventsInterleave)
{
    // Events 2^40 ticks apart share the queue with a chain that keeps
    // scheduling a third of that ahead, so each far event is re-filed
    // many times between chain steps; one chain step ties a far event
    // and fires after it (scheduled later).
    FarNear st;
    std::vector<Tick> want;
    for (Tick k = 0; k < 8; ++k) {
        const Tick t = FarNear::kFar * (k + 1) + 3 * k;
        want.push_back(t);
        st.q.schedule(t, [p = &st, t] { p->fired.push_back(t); });
    }
    for (Tick j = 0; j < FarNear::kSteps; ++j)
        want.push_back(j * FarNear::kStep);
    std::stable_sort(want.begin(), want.end());
    st.q.schedule(0, FarNear::Step{&st});
    while (!st.q.empty())
        st.q.executeNext();
    EXPECT_EQ(st.fired, want);
}

TEST(EventQueue, StorageBoundedByPeakPending)
{
    // Chunks kept never exceed ceil(peak pending / chunk) plus one per
    // bucket, through a fill, a steady hold at that depth and a drain,
    // and a second fill to the same depth reuses them.
    const std::size_t peak = 5000;
    const std::size_t bound =
        (peak + EventQueue::kChunkEvents - 1) / EventQueue::kChunkEvents +
        EventQueue::kBuckets;
    Rng rng(42);
    EventQueue q;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < peak; ++i)
            q.schedule(q.baseTick() + rng.uniformInt(std::uint64_t{1} << 30),
                       [] {});
        for (int i = 0; i < 20000; ++i) {
            q.executeNext();
            const Tick gap = rng.uniformInt(0, 7) == 0
                                 ? 0
                                 : static_cast<Tick>(rng.exponential(4.5e5));
            q.schedule(q.baseTick() + gap, [] {});
            ASSERT_LE(q.storageChunks(), bound);
        }
        const std::size_t kept = q.storageChunks();
        while (!q.empty())
            q.executeNext();
        EXPECT_EQ(q.storageChunks(), kept);
        EXPECT_LE(kept, bound);
    }
}
