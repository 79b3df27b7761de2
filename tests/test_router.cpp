/**
 * @file
 * Single-router microarchitecture tests using stub channels: pipeline
 * latency, credit conservation, wormhole ordering, VC backpressure,
 * BU/BA measurement taps.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "router/router.hpp"
#include "router/routing.hpp"
#include "topo/topology.hpp"

using dvsnet::NodeId;
using dvsnet::PortId;
using dvsnet::Tick;
using dvsnet::VcId;
using dvsnet::cyclesToTicks;
using dvsnet::kRouterClockPeriod;
using dvsnet::kTickNever;
using dvsnet::router::DorRouting;
using dvsnet::router::Flit;
using dvsnet::router::PacketDesc;
using dvsnet::router::PacketSlot;
using dvsnet::router::PacketTable;
using dvsnet::router::Router;
using dvsnet::router::RouterConfig;
using dvsnet::topo::KAryNCube;

namespace
{

/** Records every flit handed to the channel; always accepts. */
class StubChannel final : public dvsnet::router::FlitChannel
{
  public:
    bool canAccept(Tick) const override { return true; }

    Tick
    send(const Flit &flit, Tick earliest) override
    {
        sent.push_back({flit, earliest});
        return earliest;
    }

    std::vector<std::pair<Flit, Tick>> sent;
};

/** Records credit returns. */
class StubCreditPath final : public dvsnet::router::CreditChannel
{
  public:
    void
    sendCredit(VcId vc, Tick now) override
    {
        credits.push_back({vc, now});
    }

    std::vector<std::pair<VcId, Tick>> credits;
};

/** 2x2 mesh geometry: router 0 with +x neighbor 1 and +y neighbor 2. */
struct Harness
{
    KAryNCube topo{2, 2, false};
    DorRouting routing{topo, 2};
    RouterConfig cfg;
    PacketTable packets;
    Router router;
    StubChannel xPlus, yPlus, terminal;
    StubCreditPath creditBack;
    std::vector<std::pair<std::uint64_t, PacketSlot>> slots;

    Harness() : cfg(makeCfg()), router(0, cfg, routing, packets)
    {
        router.connectOutput(KAryNCube::dirPort(0, true), &xPlus, 64);
        router.connectOutput(KAryNCube::dirPort(1, true), &yPlus, 64);
        router.connectEjection(&terminal);
        // Credits for flits consumed from the -x input port.
        router.connectCreditReturn(KAryNCube::dirPort(0, false),
                                   &creditBack);
    }

    static RouterConfig
    makeCfg()
    {
        RouterConfig c;
        c.numPorts = 5;
        c.numVcs = 2;
        c.bufferPerPort = 128;
        c.pipelineLatency = 13;
        return c;
    }

    /**
     * Flit `seq` of packet `pkt` (`len` flits, from node 0 to `dst`) on
     * VC `vc`, built through the packet table; the first flit asked
     * for enters the packet.
     */
    Flit
    packetFlit(std::uint64_t pkt, std::uint16_t seq, std::uint16_t len,
               NodeId dst, VcId vc)
    {
        for (const auto &[id, slot] : slots) {
            if (id == pkt)
                return packets.makeFlit(slot, seq, vc);
        }
        PacketDesc desc;
        desc.id = pkt;
        desc.src = 0;
        desc.dst = dst;
        desc.length = len;
        slots.emplace_back(pkt, packets.add(desc));
        return packets.makeFlit(slots.back().second, seq, vc);
    }

    /** Id of the packet `flit` belongs to. */
    std::uint64_t
    packetOf(const Flit &flit) const
    {
        return packets.at(flit.slot).id;
    }

    /** Deliver a flit into an input port at cycle `cycle`. */
    void
    deliver(PortId inPort, const Flit &flit, dvsnet::Cycle cycle)
    {
        router.flitInbox(inPort).push(cyclesToTicks(cycle), flit);
    }

    /** Step the router through cycles [from, to]. */
    void
    stepTo(dvsnet::Cycle from, dvsnet::Cycle to)
    {
        for (dvsnet::Cycle c = from; c <= to; ++c)
            router.step(cyclesToTicks(c));
    }
};

} // namespace

TEST(Router, HeadFlitTraversesAfterThreeStages)
{
    Harness h;
    // Single-flit packet to node 1 (+x from node 0).
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.stepTo(1, 10);
    ASSERT_EQ(h.xPlus.sent.size(), 1u);
    // Arrives cycle 1: RC@1, VA@2, SA@3 -> handed to the channel with
    // earliest = cycle 3 + (pipelineLatency - 2) = cycle 14.
    EXPECT_EQ(h.xPlus.sent[0].second, cyclesToTicks(3 + 11));
}

TEST(Router, BodyFlitsFollowAtOnePerCycle)
{
    Harness h;
    for (std::uint16_t s = 0; s < 5; ++s)
        h.deliver(h.topo.terminalPort(), h.packetFlit(1, s, 5, 1, 0),
                  1 + s);
    h.stepTo(1, 12);
    ASSERT_EQ(h.xPlus.sent.size(), 5u);
    for (std::uint16_t s = 0; s < 5; ++s) {
        EXPECT_EQ(h.xPlus.sent[s].first.seq, s);
        EXPECT_EQ(h.xPlus.sent[s].second, cyclesToTicks(14 + s));
    }
}

TEST(Router, FlitsKeepPacketOrder)
{
    Harness h;
    for (std::uint16_t s = 0; s < 5; ++s)
        h.deliver(KAryNCube::dirPort(0, false),
                  h.packetFlit(7, s, 5, 1, 1), 1);
    h.stepTo(1, 20);
    ASSERT_EQ(h.xPlus.sent.size(), 5u);
    for (std::uint16_t s = 0; s < 5; ++s)
        EXPECT_EQ(h.xPlus.sent[s].first.seq, s);
}

TEST(Router, OutputFlitCarriesDownstreamVc)
{
    Harness h;
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.stepTo(1, 10);
    ASSERT_EQ(h.xPlus.sent.size(), 1u);
    const VcId outVc = h.xPlus.sent[0].first.vc;
    EXPECT_TRUE(outVc == 0 || outVc == 1);
}

TEST(Router, CreditReturnedWhenFlitLeavesBuffer)
{
    Harness h;
    h.deliver(KAryNCube::dirPort(0, false), h.packetFlit(1, 0, 1, 1, 1), 1);
    h.stepTo(1, 10);
    ASSERT_EQ(h.creditBack.credits.size(), 1u);
    EXPECT_EQ(h.creditBack.credits[0].first, 1);  // the VC it occupied
    EXPECT_EQ(h.creditBack.credits[0].second, cyclesToTicks(3));
}

TEST(Router, NoCreditForTerminalInjection)
{
    Harness h;
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.stepTo(1, 10);
    EXPECT_TRUE(h.creditBack.credits.empty());
}

TEST(Router, CreditExhaustionStallsAndRecovers)
{
    Harness h;
    // Rewire +x with only 2 credits per VC.
    StubChannel tiny;
    h.router.connectOutput(KAryNCube::dirPort(0, true), &tiny, 2);
    for (std::uint16_t s = 0; s < 5; ++s)
        h.deliver(h.topo.terminalPort(), h.packetFlit(1, s, 5, 1, 0), 1 + s);
    h.stepTo(1, 30);
    // Only 2 flits can leave before credits run dry.
    EXPECT_EQ(tiny.sent.size(), 2u);

    // Return one credit for the VC the packet holds.
    const VcId vc = tiny.sent[0].first.vc;
    h.router.creditInbox(KAryNCube::dirPort(0, true))
        .push(cyclesToTicks(31), vc);
    h.stepTo(31, 40);
    EXPECT_EQ(tiny.sent.size(), 3u);
}

TEST(Router, TwoPacketsToDifferentOutputsProceedInParallel)
{
    Harness h;
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.deliver(KAryNCube::dirPort(0, false), h.packetFlit(2, 0, 1, 2, 0), 1);
    h.stepTo(1, 12);
    EXPECT_EQ(h.xPlus.sent.size(), 1u);
    EXPECT_EQ(h.yPlus.sent.size(), 1u);
}

TEST(Router, SecondPacketInSameVcWaitsForTail)
{
    Harness h;
    const PortId in = KAryNCube::dirPort(0, false);
    // Two 2-flit packets back-to-back in the same input VC.
    h.deliver(in, h.packetFlit(1, 0, 2, 1, 0), 1);
    h.deliver(in, h.packetFlit(1, 1, 2, 1, 0), 2);
    h.deliver(in, h.packetFlit(2, 0, 2, 1, 0), 3);
    h.deliver(in, h.packetFlit(2, 1, 2, 1, 0), 4);
    h.stepTo(1, 30);
    ASSERT_EQ(h.xPlus.sent.size(), 4u);
    // Packet 2's head re-runs RC/VA after packet 1's tail departs.
    EXPECT_EQ(h.packetOf(h.xPlus.sent[1].first), 1u);
    EXPECT_EQ(h.packetOf(h.xPlus.sent[2].first), 2u);
    EXPECT_GE(h.xPlus.sent[2].second,
              h.xPlus.sent[1].second + 2 * kRouterClockPeriod);
}

TEST(Router, BlockedChannelExertsBackpressure)
{
    // A channel that never accepts: flits stay buffered.
    class ClosedChannel final : public dvsnet::router::FlitChannel
    {
      public:
        bool canAccept(Tick) const override { return false; }
        Tick send(const Flit &, Tick) override
        {
            ADD_FAILURE() << "send on closed channel";
            return 0;
        }
    };

    Harness h;
    ClosedChannel closed;
    h.router.connectOutput(KAryNCube::dirPort(0, true), &closed, 64);
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.stepTo(1, 20);
    EXPECT_EQ(h.router.bufferOccupancy(h.topo.terminalPort()), 1u);
    EXPECT_EQ(h.router.nextStep(cyclesToTicks(20)), cyclesToTicks(21));
}

TEST(Router, IdleReflectsState)
{
    Harness h;
    EXPECT_EQ(h.router.nextStep(0), kTickNever);
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    EXPECT_EQ(h.router.nextStep(0), cyclesToTicks(1));
    h.stepTo(1, 10);
    EXPECT_EQ(h.router.nextStep(cyclesToTicks(10)), kTickNever);
}

TEST(Router, StepReportsItsNextDueEdge)
{
    // step() returns the next edge at which a step can do anything: the
    // next edge while a flit is buffered, else the edge at or after the
    // earliest flit or credit still in an inbox, else never.
    Harness h;
    const PortId in = KAryNCube::dirPort(0, false);
    const PortId out = KAryNCube::dirPort(0, true);
    EXPECT_EQ(h.router.step(cyclesToTicks(1)), kTickNever);

    // A flit arriving between edges is due at the edge after it.
    h.router.flitInbox(in).push(cyclesToTicks(5) + 300,
                                h.packetFlit(1, 0, 1, 1, 0));
    EXPECT_EQ(h.router.step(cyclesToTicks(2)), cyclesToTicks(6));
    EXPECT_EQ(h.router.bufferOccupancy(in), 0u);
    for (dvsnet::Cycle c = 6; h.xPlus.sent.empty(); ++c) {
        ASSERT_LT(c, 20u);
        const Tick next = h.router.step(cyclesToTicks(c));
        EXPECT_EQ(next, h.xPlus.sent.empty() ? cyclesToTicks(c + 1)
                                             : kTickNever);
    }

    // The flit spent a +x credit; its return on an edge is due there,
    // unless a flit waiting in an inbox is due first.
    h.router.creditInbox(out).push(cyclesToTicks(30), 0);
    EXPECT_EQ(h.router.step(cyclesToTicks(20)), cyclesToTicks(30));
    h.router.flitInbox(in).push(cyclesToTicks(25) + 1,
                                h.packetFlit(2, 0, 1, 1, 0));
    EXPECT_EQ(h.router.nextStep(cyclesToTicks(20)), cyclesToTicks(26));
    EXPECT_EQ(h.router.step(cyclesToTicks(26)), cyclesToTicks(27));
    h.stepTo(27, 40);
    EXPECT_EQ(h.xPlus.sent.size(), 2u);
    // Two flits out, one credit back.
    EXPECT_EQ(h.router.creditCount(out, 0) + h.router.creditCount(out, 1),
              127u);
    EXPECT_EQ(h.router.nextStep(cyclesToTicks(40)), kTickNever);
}

TEST(Router, TerminalFreeSlotsTracksOccupancy)
{
    Harness h;
    EXPECT_EQ(h.router.terminalFreeSlots(0), 64u);
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 5, 1, 0), 1);
    h.router.step(cyclesToTicks(1));
    EXPECT_EQ(h.router.terminalFreeSlots(0), 63u);
}

TEST(Router, BufferUtilWindowSeesDownstreamOccupancy)
{
    Harness h;
    const PortId out = KAryNCube::dirPort(0, true);
    h.deliver(h.topo.terminalPort(), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.stepTo(1, 10);
    // One flit committed downstream, no credit returned yet: occupancy
    // 1 of 128 for part of the window.
    const double bu = h.router.takeBufferUtilWindow(out,
                                                    cyclesToTicks(10));
    EXPECT_GT(bu, 0.0);
    EXPECT_LT(bu, 0.05);
    EXPECT_NEAR(h.router.bufferUtilNow(out), 1.0 / 128.0, 1e-9);
}

TEST(Router, BufferAgeWindowCountsResidency)
{
    Harness h;
    h.deliver(KAryNCube::dirPort(0, false), h.packetFlit(1, 0, 1, 1, 0), 1);
    h.stepTo(1, 10);
    const auto [ageSum, departed] =
        h.router.takeBufferAgeWindow(KAryNCube::dirPort(0, false));
    EXPECT_EQ(departed, 1u);
    EXPECT_DOUBLE_EQ(ageSum, 2.0);  // arrived cycle 1, SA at cycle 3
    // Window resets.
    const auto [a2, d2] =
        h.router.takeBufferAgeWindow(KAryNCube::dirPort(0, false));
    EXPECT_EQ(d2, 0u);
    EXPECT_DOUBLE_EQ(a2, 0.0);
}

TEST(Router, StatsAccumulate)
{
    Harness h;
    for (std::uint16_t s = 0; s < 5; ++s)
        h.deliver(h.topo.terminalPort(), h.packetFlit(1, s, 5, 1, 0), 1 + s);
    h.stepTo(1, 20);
    EXPECT_EQ(h.router.stats().flitsArrived, 5u);
    EXPECT_EQ(h.router.stats().flitsForwarded, 5u);
    EXPECT_EQ(h.router.stats().headsRouted, 1u);
    EXPECT_EQ(h.router.stats().vcGrants, 1u);
    EXPECT_EQ(h.router.stats().switchGrants, 5u);
}

TEST(Router, EjectionAtDestination)
{
    Harness h;
    // Packet addressed to node 0 itself: goes out the terminal port.
    h.deliver(KAryNCube::dirPort(0, false), h.packetFlit(1, 0, 1, 0, 0), 1);
    h.stepTo(1, 10);
    EXPECT_EQ(h.terminal.sent.size(), 1u);
    EXPECT_TRUE(h.xPlus.sent.empty());
}

TEST(Router, EjectionSpendsNoCredits)
{
    // 33 packets of 2^15 flits addressed to node 0 itself: 2^20 + 2^15
    // flits leave through the terminal port, more than any per-VC
    // credit count a terminal could be given, so an ejection that spent
    // credits would stall short of the total.  The -x input is fed one
    // flit a cycle while its VC has room, as an upstream router would.
    Harness h;
    const PortId in = KAryNCube::dirPort(0, false);
    constexpr std::uint16_t kLen = 1u << 15;
    constexpr std::uint64_t kTotal = 33 * std::uint64_t{kLen};
    std::uint64_t delivered = 0;
    std::uint64_t ejected = 0;
    for (dvsnet::Cycle c = 1; c <= kTotal + 256 && ejected < kTotal; ++c) {
        if (delivered < kTotal && h.router.bufferOccupancy(in) < 64) {
            h.deliver(in,
                      h.packetFlit(1 + delivered / kLen,
                                   static_cast<std::uint16_t>(
                                       delivered % kLen),
                                   kLen, 0, 0),
                      c);
            ++delivered;
        }
        h.router.step(cyclesToTicks(c));
        // Count and drop what the stubs record, so memory stays flat.
        ejected += h.terminal.sent.size();
        h.terminal.sent.clear();
        h.creditBack.credits.clear();
    }
    EXPECT_EQ(ejected, kTotal);
    EXPECT_EQ(h.router.nextStep(cyclesToTicks(kTotal + 256)), kTickNever);
}
