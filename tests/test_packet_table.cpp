/**
 * @file
 * Packet table tests: field round trip, slot reuse from the free list,
 * storage bounded by packets in flight, id ordering and dead-slot
 * panics.
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "router/flit.hpp"

using dvsnet::router::Flit;
using dvsnet::router::Packet;
using dvsnet::router::PacketDesc;
using dvsnet::router::PacketSlot;
using dvsnet::router::PacketTable;

namespace
{

PacketDesc
desc(std::uint64_t id, std::uint16_t length = 5)
{
    PacketDesc d;
    d.id = id;
    d.src = 3;
    d.dst = 60;
    d.length = length;
    d.created = 1000 * id;
    return d;
}

} // namespace

TEST(PacketTable, FieldsRoundTrip)
{
    PacketTable table;
    PacketDesc d;
    d.id = 0x123456789abcull;
    d.src = 17;
    d.dst = 42;
    d.length = 65535;
    d.created = 987654321012ull;
    const PacketSlot slot = table.add(d);

    Packet &pkt = table.at(slot);
    EXPECT_EQ(pkt.id, d.id);
    EXPECT_EQ(pkt.src, d.src);
    EXPECT_EQ(pkt.dst, d.dst);
    EXPECT_EQ(pkt.length, d.length);
    EXPECT_EQ(pkt.created, d.created);
    // Bookkeeping and echo fields start cleared.
    EXPECT_EQ(pkt.nextSeq, 0);
    EXPECT_FALSE(pkt.inWindow);
    EXPECT_FALSE(pkt.echo);
    EXPECT_EQ(pkt.tag, 0u);

    pkt.nextSeq = 4;
    pkt.inWindow = true;
    pkt.echo = true;
    pkt.tag = 0xfeedfacecafebeefull;
    pkt.requestedFlits = 7;
    pkt.trafficClass = 200;
    const Packet &again = table.at(slot);
    EXPECT_EQ(again.nextSeq, 4);
    EXPECT_TRUE(again.inWindow);
    EXPECT_TRUE(again.echo);
    EXPECT_EQ(again.tag, 0xfeedfacecafebeefull);
    EXPECT_EQ(again.requestedFlits, 7);
    EXPECT_EQ(again.trafficClass, 200);

    // Flits carry the slot, their seq and VC, and the tail flag.
    const Flit head = table.makeFlit(slot, 0, 1);
    EXPECT_EQ(head.slot, slot);
    EXPECT_EQ(head.vc, 1);
    EXPECT_TRUE(head.isHead());
    EXPECT_FALSE(head.isTail());
    const Flit tail = table.makeFlit(slot, 65534, 0);
    EXPECT_FALSE(tail.isHead());
    EXPECT_TRUE(tail.isTail());
}

TEST(PacketTable, ReleasedSlotReusedBeforeGrowth)
{
    PacketTable table;
    const PacketSlot a = table.add(desc(1));
    const PacketSlot b = table.add(desc(2));
    EXPECT_NE(a, b);
    EXPECT_EQ(table.capacity(), 2u);

    table.release(a);
    EXPECT_EQ(table.size(), 1u);
    const PacketSlot c = table.add(desc(3));
    EXPECT_EQ(c, a);
    EXPECT_EQ(table.capacity(), 2u);
    // The reused slot holds the new packet, with every field reset.
    EXPECT_EQ(table.at(c).id, 3u);
    EXPECT_EQ(table.at(c).nextSeq, 0);
    EXPECT_EQ(table.at(b).id, 2u);
    EXPECT_EQ(table.size(), 2u);
}

TEST(PacketTable, StorageBoundedByPacketsInFlight)
{
    // 100k packets pass through with at most kLive in flight at once,
    // released in a shuffled order: the table holds kLive slots.
    constexpr std::size_t kLive = 37;
    PacketTable table;
    std::deque<PacketSlot> live;
    std::mt19937 rng(11);
    std::size_t peak = 0;
    for (std::uint64_t id = 1; id <= 100000; ++id) {
        if (live.size() == kLive) {
            const std::size_t victim = rng() % live.size();
            table.release(live[victim]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        live.push_back(table.add(desc(id, 1)));
        ASSERT_EQ(table.at(live.back()).id, id);
        peak = std::max(peak, live.size());
        ASSERT_EQ(table.size(), live.size());
    }
    EXPECT_EQ(peak, kLive);
    EXPECT_EQ(table.capacity(), kLive);

    std::size_t visited = 0;
    table.forEachLive([&visited](Packet &) { ++visited; });
    EXPECT_EQ(visited, kLive);
}

TEST(PacketTableDeathTest, IdsMustStrictlyIncrease)
{
    PacketTable table;
    table.add(desc(5));
    EXPECT_DEATH(table.add(desc(5)), "duplicate");
    EXPECT_DEATH(table.add(desc(4)), "out-of-order");
}

TEST(PacketTableDeathTest, DeadSlotReadPanics)
{
    PacketTable table;
    const PacketSlot slot = table.add(desc(1));
    table.release(slot);
    EXPECT_FALSE(table.live(slot));
    EXPECT_DEATH(table.at(slot), "holds no packet");
    EXPECT_DEATH(table.makeFlit(slot, 0), "holds no packet");
    // A slot the table never handed out is dead too.
    EXPECT_DEATH(table.at(slot + 1), "holds no packet");
}

TEST(PacketTableDeathTest, DeadSlotReleasePanics)
{
    PacketTable table;
    const PacketSlot slot = table.add(desc(1));
    table.release(slot);
    EXPECT_DEATH(table.release(slot), "holds no packet");
}
