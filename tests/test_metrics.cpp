/**
 * @file
 * Metrics collector tests: latency accounting per the paper's definition,
 * measurement-window filtering, flit-integrity checking.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "network/metrics.hpp"

using dvsnet::Tick;
using dvsnet::cyclesToTicks;
using dvsnet::network::MetricsCollector;
using dvsnet::router::Flit;
using dvsnet::router::PacketDesc;
using dvsnet::router::PacketSlot;
using dvsnet::router::PacketTable;

namespace
{

PacketDesc
desc(std::uint64_t id, Tick created, std::uint16_t len = 5)
{
    PacketDesc d;
    d.id = id;
    d.src = 0;
    d.dst = 1;
    d.length = len;
    d.created = created;
    return d;
}

/** A collector over its own packet table; packets are named by id. */
struct Harness
{
    PacketTable table;
    MetricsCollector m{table};
    std::vector<std::pair<std::uint64_t, PacketSlot>> slots;

    void
    create(const PacketDesc &d)
    {
        slots.emplace_back(d.id, m.onPacketCreated(d));
    }

    /** Flit `seq` of packet `id`, built through the table. */
    Flit
    flit(std::uint64_t id, std::uint16_t seq) const
    {
        for (const auto &[pid, slot] : slots) {
            if (pid == id)
                return table.makeFlit(slot, seq);
        }
        ADD_FAILURE() << "no packet " << id;
        return Flit{};
    }

    bool
    eject(std::uint64_t id, std::uint16_t seq, Tick arrival)
    {
        return m.onFlitEjected(flit(id, seq), arrival);
    }
};

} // namespace

TEST(Metrics, LatencySpansCreationToTailEjection)
{
    Harness h;
    h.create(desc(1, cyclesToTicks(10), 2));
    h.eject(1, 0, cyclesToTicks(50));
    const bool done = h.eject(1, 1, cyclesToTicks(60));
    EXPECT_TRUE(done);
    EXPECT_EQ(h.m.latency().count(), 1u);
    EXPECT_DOUBLE_EQ(h.m.latency().mean(), 50.0);
}

TEST(Metrics, CountsCreatedAndDelivered)
{
    Harness h;
    h.create(desc(1, 100, 1));
    h.create(desc(2, 200, 1));
    h.eject(1, 0, 500);
    EXPECT_EQ(h.m.packetsCreated(), 2u);
    EXPECT_EQ(h.m.packetsDelivered(), 1u);
    EXPECT_EQ(h.m.inFlight(), 1u);
}

TEST(Metrics, WindowExcludesWarmupPackets)
{
    Harness h;
    h.create(desc(1, 100, 1));  // warm-up packet
    h.m.beginWindow(1000);
    h.create(desc(2, 2000, 1));
    EXPECT_EQ(h.m.packetsCreated(), 1u);

    // Warm-up packet delivered inside the window: counts for throughput
    // (flits/packets ejected) but not for latency.
    h.eject(1, 0, 3000);
    h.eject(2, 0, 4000);
    EXPECT_EQ(h.m.flitsEjected(), 2u);
    EXPECT_EQ(h.m.packetsEjected(), 2u);
    EXPECT_EQ(h.m.packetsDelivered(), 1u);
    EXPECT_EQ(h.m.latency().count(), 1u);
    EXPECT_DOUBLE_EQ(h.m.latency().mean(), 2.0);
}

TEST(Metrics, EjectionsBeforeWindowNotCounted)
{
    Harness h;
    h.create(desc(1, 0, 1));
    h.eject(1, 0, 500);
    h.m.beginWindow(1000);
    EXPECT_EQ(h.m.flitsEjected(), 0u);
    EXPECT_EQ(h.m.packetsEjected(), 0u);
}

TEST(MetricsDeathTest, ReorderedFlitPanics)
{
    Harness h;
    h.create(desc(1, 0, 3));
    h.eject(1, 0, 100);
    EXPECT_DEATH(h.eject(1, 2, 200), "reorder");
}

TEST(MetricsDeathTest, UnknownPacketPanics)
{
    // The tail's ejection released the packet's slot, so a second
    // ejection of that flit names no packet.
    Harness h;
    h.create(desc(1, 0, 1));
    const Flit stale = h.flit(1, 0);
    EXPECT_TRUE(h.m.onFlitEjected(stale, 100));
    EXPECT_DEATH(h.m.onFlitEjected(stale, 200), "unknown packet");
}

TEST(MetricsDeathTest, DuplicatePacketIdPanics)
{
    Harness h;
    h.create(desc(1, 0, 1));
    EXPECT_DEATH(h.create(desc(1, 0, 1)), "duplicate");
}

TEST(Metrics, MultiplePacketsAverageLatency)
{
    Harness h;
    h.create(desc(1, 0, 1));
    h.create(desc(2, 0, 1));
    h.eject(1, 0, cyclesToTicks(10));
    h.eject(2, 0, cyclesToTicks(30));
    EXPECT_DOUBLE_EQ(h.m.latency().mean(), 20.0);
    EXPECT_DOUBLE_EQ(h.m.latency().max(), 30.0);
}
