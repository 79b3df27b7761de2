/**
 * @file
 * Virtual-channel buffer tests: FIFO order, capacity accounting,
 * per-port partitioning; plus inbox timestamp semantics.  (The VC
 * allocation state machine lives in the Router's SoA slabs and is
 * exercised by test_router.cpp / test_wide_geometry.cpp.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "router/buffer.hpp"
#include "router/inbox.hpp"

using dvsnet::Tick;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::router::InputBuffer;
using dvsnet::router::PacketDesc;
using dvsnet::router::PacketTable;
using dvsnet::router::VirtualChannel;

namespace
{

/** Flit `seq` of a 5-flit packet on VC 0, built through a table. */
Flit
makeFlit(std::uint16_t seq)
{
    PacketTable table;
    PacketDesc desc;
    desc.id = 1;
    desc.length = 5;
    return table.makeFlit(table.add(desc), seq);
}

/** A flit told apart by its arrival tick, for FIFO-order checks. */
Flit
numbered(Tick n)
{
    Flit f;
    f.arrived = n;
    return f;
}

} // namespace

TEST(VirtualChannel, StartsIdleAndEmpty)
{
    VirtualChannel vc(8);
    EXPECT_TRUE(vc.empty());
    EXPECT_FALSE(vc.full());
    EXPECT_EQ(vc.freeSlots(), 8u);
    EXPECT_EQ(vc.capacity(), 8u);
}

TEST(VirtualChannel, FifoOrder)
{
    VirtualChannel vc(8);
    for (std::uint16_t i = 0; i < 5; ++i)
        vc.enqueue(makeFlit(i));
    for (std::uint16_t i = 0; i < 5; ++i) {
        EXPECT_EQ(vc.front().seq, i);
        EXPECT_EQ(vc.dequeue().seq, i);
    }
    EXPECT_TRUE(vc.empty());
}

TEST(VirtualChannel, OccupancyTracksOperations)
{
    VirtualChannel vc(4);
    vc.enqueue(makeFlit(0));
    vc.enqueue(makeFlit(1));
    EXPECT_EQ(vc.occupancy(), 2u);
    EXPECT_EQ(vc.freeSlots(), 2u);
    vc.dequeue();
    EXPECT_EQ(vc.occupancy(), 1u);
}

TEST(VirtualChannel, FullAtCapacity)
{
    VirtualChannel vc(2);
    vc.enqueue(makeFlit(0));
    vc.enqueue(makeFlit(1));
    EXPECT_TRUE(vc.full());
    EXPECT_EQ(vc.freeSlots(), 0u);
}

TEST(VirtualChannel, RingGrowsWhileWrappedAndKeepsFifoOrder)
{
    // The ring is allocated on the first enqueue (8 slots), wraps while
    // the occupancy stays within it, and doubles only when an enqueue
    // finds it full, re-homing a wrapped sequence in FIFO order.
    VirtualChannel vc(64);
    EXPECT_EQ(vc.storageSize(), 0u);
    Tick next = 0;
    Tick expect = 0;
    for (int round = 0; round < 100; ++round) {
        while (vc.occupancy() < 6)
            vc.enqueue(numbered(next++));
        while (vc.occupancy() > 2)
            ASSERT_EQ(vc.dequeue().arrived, expect++);
    }
    EXPECT_EQ(vc.storageSize(), 8u);
    // The head now sits mid-ring: each growth below copies a wrapped
    // ring.
    for (const std::size_t peak : {9u, 17u, 33u}) {
        while (vc.occupancy() < peak)
            vc.enqueue(numbered(next++));
        EXPECT_EQ(vc.storageSize(), std::bit_ceil(peak));
        ASSERT_EQ(vc.dequeue().arrived, expect++);
        vc.enqueue(numbered(next++));
        EXPECT_EQ(vc.storageSize(), std::bit_ceil(peak));
    }
    while (!vc.full())
        vc.enqueue(numbered(next++));
    EXPECT_EQ(vc.occupancy(), 64u);
    EXPECT_EQ(vc.storageSize(), 64u);
    while (!vc.empty()) {
        ASSERT_EQ(vc.front().arrived, expect);
        ASSERT_EQ(vc.dequeue().arrived, expect++);
    }
    EXPECT_EQ(expect, next);
}

TEST(VirtualChannel, StorageNeverExceedsCapacity)
{
    // A capacity that is no power of two caps the last doubling; the
    // VC is full at its capacity, not at the ring's next power of two.
    VirtualChannel vc(20);
    for (Tick i = 0; i < 5; ++i)
        vc.enqueue(numbered(i));
    EXPECT_EQ(vc.storageSize(), 8u);
    for (Tick i = 5; i < 20; ++i)
        vc.enqueue(numbered(i));
    EXPECT_TRUE(vc.full());
    EXPECT_EQ(vc.storageSize(), 20u);
    for (Tick i = 0; i < 20; ++i)
        ASSERT_EQ(vc.dequeue().arrived, i);

    VirtualChannel tiny(3);  // smaller than the first allocation
    tiny.enqueue(numbered(0));
    EXPECT_EQ(tiny.storageSize(), 3u);
}

TEST(VirtualChannelDeathTest, OverflowPanics)
{
    VirtualChannel vc(1);
    vc.enqueue(makeFlit(0));
    EXPECT_DEATH(vc.enqueue(makeFlit(1)), "full VC");
}

TEST(VirtualChannelDeathTest, UnderflowPanics)
{
    VirtualChannel vc(1);
    EXPECT_DEATH(vc.dequeue(), "empty VC");
}

TEST(InputBuffer, SplitsCapacityEvenly)
{
    InputBuffer buf(2, 128);
    EXPECT_EQ(buf.numVcs(), 2);
    EXPECT_EQ(buf.vc(0).capacity(), 64u);
    EXPECT_EQ(buf.vc(1).capacity(), 64u);
}

TEST(InputBuffer, TotalOccupancySumsVcs)
{
    InputBuffer buf(2, 8);
    buf.vc(0).enqueue(makeFlit(0));
    buf.vc(1).enqueue(makeFlit(0));
    buf.vc(1).enqueue(makeFlit(1));
    EXPECT_EQ(buf.totalOccupancy(), 3u);
}

TEST(InputBuffer, OddCapacityFloors)
{
    InputBuffer buf(3, 10);
    EXPECT_EQ(buf.vc(0).capacity(), 3u);
    EXPECT_EQ(buf.vc(1).capacity(), 3u);
    EXPECT_EQ(buf.vc(2).capacity(), 3u);
}

TEST(Inbox, ReadyRespectsTimestamps)
{
    Inbox<int> box;
    box.push(100, 7);
    EXPECT_FALSE(box.ready(99));
    EXPECT_TRUE(box.ready(100));
    EXPECT_TRUE(box.ready(200));
}

TEST(Inbox, PopsInOrder)
{
    Inbox<int> box;
    box.push(10, 1);
    box.push(20, 2);
    box.push(20, 3);
    EXPECT_EQ(box.pop(50), 1);
    EXPECT_EQ(box.pop(50), 2);
    EXPECT_EQ(box.pop(50), 3);
    EXPECT_TRUE(box.empty());
}

TEST(Inbox, NextArrival)
{
    Inbox<int> box;
    EXPECT_EQ(box.nextArrival(), dvsnet::kTickNever);
    box.push(42, 1);
    EXPECT_EQ(box.nextArrival(), Tick{42});
}

TEST(Inbox, StorageBoundedWhenNeverFullyDrained)
{
    // Under sustained load an inbox always holds a future-dated
    // delivery, so it never fully drains; the consumed prefix must
    // still be released instead of growing with every push.
    Inbox<int> box;
    box.push(0, 0);
    std::size_t maxStorage = 0;
    for (int i = 1; i <= 100000; ++i) {
        box.push(i, i);
        maxStorage = std::max(maxStorage, box.storageSize());
        ASSERT_EQ(box.pop(i), i - 1);
        ASSERT_EQ(box.size(), 1u);
        ASSERT_EQ(box.nextArrival(), Tick(i));
    }
    EXPECT_LE(maxStorage, 128u);
}

TEST(Inbox, FifoOrderAndStorageBoundUnderRandomBursts)
{
    // Bursts of pushes and partial drains against a deque reference:
    // erasing the consumed prefix must keep FIFO order and arrival
    // gating, and storage stays within 2 x peak in-flight + 64.
    Inbox<int> box;
    std::deque<std::pair<Tick, int>> ref;
    std::mt19937 rng(7);
    Tick now = 0;
    int next = 0;
    std::size_t peakLive = 0;
    for (int step = 0; step < 20000; ++step) {
        now += rng() % 4;
        const std::size_t burst = rng() % (step % 500 < 250 ? 40 : 8);
        for (std::size_t k = 0; k < burst; ++k) {
            const Tick when = now + 1 + rng() % 3 + k;
            const Tick at = ref.empty() ? when
                                        : std::max(when, ref.back().first);
            box.push(at, next);
            ref.emplace_back(at, next++);
        }
        peakLive = std::max(peakLive, ref.size());
        std::size_t pops = rng() % 24;
        while (pops-- > 0 && !ref.empty() && ref.front().first <= now) {
            ASSERT_TRUE(box.ready(now));
            ASSERT_EQ(box.pop(now), ref.front().second);
            ref.pop_front();
        }
        ASSERT_EQ(box.size(), ref.size());
        ASSERT_EQ(box.nextArrival(),
                  ref.empty() ? dvsnet::kTickNever : ref.front().first);
        ASSERT_EQ(box.ready(now), !ref.empty() && ref.front().first <= now);
        ASSERT_LE(box.storageSize(), 2 * peakLive + 64);
    }
}

TEST(Inbox, RingCapacityIsNextPowerOfTwoOfPeak)
{
    // The ring is allocated on the first push (8 slots), wraps without
    // growing while the count in flight stays within it, and doubles
    // only when a push finds it full, keeping FIFO order across the
    // wrap point.
    Inbox<int> box;
    EXPECT_EQ(box.storageSize(), 0u);
    box.push(0, 0);
    EXPECT_EQ(box.storageSize(), 8u);
    int next = 1;
    int expect = 0;
    for (int round = 0; round < 100; ++round) {
        while (box.size() < 6)
            box.push(next, next), ++next;
        while (box.size() > 2)
            ASSERT_EQ(box.pop(next), expect++);
    }
    EXPECT_EQ(box.storageSize(), 8u);
    // head_ now sits mid-ring; fill past 8 so the growth re-homes a
    // wrapped sequence.
    while (box.size() < 9)
        box.push(next, next), ++next;
    EXPECT_EQ(box.storageSize(), 16u);
    for (int k = 0; k < 20; ++k)
        box.push(next, next), ++next;
    EXPECT_EQ(box.storageSize(), 32u);
    while (!box.empty())
        ASSERT_EQ(box.pop(next), expect++);
    EXPECT_EQ(expect, next);
}

TEST(InboxDeathTest, NonMonotonePushPanics)
{
    Inbox<int> box;
    box.push(100, 1);
    EXPECT_DEATH(box.push(50, 2), "monotone");
}

TEST(InboxDeathTest, PrematurePopPanics)
{
    Inbox<int> box;
    box.push(100, 1);
    EXPECT_DEATH(box.pop(50), "nothing ready");
}
