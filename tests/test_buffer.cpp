/**
 * @file
 * Virtual-channel buffer tests: FIFO order, capacity accounting,
 * per-port partitioning; plus inbox timestamp semantics.  (The VC
 * allocation state machine lives in the Router's SoA slabs and is
 * exercised by test_router.cpp / test_wide_geometry.cpp.)
 */

#include <gtest/gtest.h>

#include "router/buffer.hpp"
#include "router/inbox.hpp"

using dvsnet::Tick;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::router::InputBuffer;
using dvsnet::router::VirtualChannel;

namespace
{

Flit
makeFlit(std::uint16_t seq, std::uint16_t len = 5)
{
    Flit f;
    f.packet = 1;
    f.seq = seq;
    f.packetLen = len;
    f.vc = 0;
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
    EXPECT_EQ(buf.totalCapacity(), 128u);
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
    EXPECT_EQ(buf.totalCapacity(), 9u);
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

TEST(Inbox, OwnerAwakeWhileNonEmptyOrPoppedThisTick)
{
    // Link batching pushes directly into an awake owner's inbox; an
    // inbox drained this tick still counts as awake (EXPERIMENTS.md,
    // "Inbox same-tick-pop clause").
    Inbox<int> box;
    EXPECT_FALSE(box.ownerAwakeAt(100));
    box.push(100, 1);
    EXPECT_TRUE(box.ownerAwakeAt(50));
    EXPECT_EQ(box.pop(100), 1);
    ASSERT_TRUE(box.empty());
    EXPECT_TRUE(box.ownerAwakeAt(100));
    EXPECT_FALSE(box.ownerAwakeAt(101));
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
