/**
 * @file
 * End-to-end network integration tests: delivery integrity, zero-load
 * latency, DVS behavior under idle/light/heavy load, power
 * normalization, determinism, torus and adaptive-routing variants,
 * inbox storage at saturation.
 */

#include <gtest/gtest.h>

#include "network/network.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/task_model.hpp"

using dvsnet::Cycle;
using dvsnet::NodeId;
using dvsnet::PortId;
using dvsnet::Tick;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RoutingKind;
using dvsnet::network::RunResults;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;

namespace
{

NetworkConfig
smallConfig(PolicyKind policy = PolicyKind::None)
{
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.policy = policy;
    return cfg;
}

} // namespace

TEST(Network, GeometryMatchesTopology)
{
    Network net(smallConfig());
    EXPECT_EQ(net.topology().numNodes(), 16);
    EXPECT_EQ(net.numChannels(), 48u);  // 2 * (2 * 4 * 3) for a 4x4 mesh
}

TEST(Network, DeliversEveryPacketAtLowLoad)
{
    Network net(smallConfig());
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.005,
                           1);
    net.attachTraffic(traffic);
    const RunResults res = net.run(2000, 30000);
    EXPECT_GT(res.packetsCreated, 500u);
    // Allow the tail still in flight at the horizon.
    EXPECT_GE(res.packetsDelivered + 20, res.packetsCreated);
    // Drain window: the generator keeps injecting, so a handful of
    // freshly created packets may be in flight, but nothing older.
    net.runUntilCycle(net.currentCycle() + 2000);
    EXPECT_LE(net.metrics().inFlight(), 10u);
}

TEST(Network, ZeroLoadLatencyMatchesPipelineModel)
{
    // Neighbor traffic (+1 in x with wraparound) on a 4x4 *mesh*: 3 of 4
    // sources are 1 hop away, the x=3 column is 3 hops -> 1.5 hops mean.
    // Per hop: 13-cycle router + 2-cycle link; plus source router (13),
    // tail serialization (4), ejection (1) and injection alignment:
    // ~ 13 + 1.5*15 + 5 + ~1 = ~41-42 cycles.
    Network net(smallConfig());
    PatternTraffic traffic(net.topology(), Pattern::Neighbor, 0.002, 2);
    net.attachTraffic(traffic);
    const RunResults res = net.run(2000, 30000);
    ASSERT_GT(res.packetsDelivered, 100u);
    EXPECT_GT(res.avgLatencyCycles, 38.0);
    EXPECT_LT(res.avgLatencyCycles, 45.0);
}

TEST(Network, LatencyGrowsWithDistance)
{
    // Transpose traffic travels further than neighbor traffic.
    double neighborLat = 0.0, transposeLat = 0.0;
    for (auto [pattern, lat] :
         {std::pair<Pattern, double *>{Pattern::Neighbor, &neighborLat},
          {Pattern::Transpose, &transposeLat}}) {
        Network net(smallConfig());
        PatternTraffic traffic(net.topology(), pattern, 0.002, 3);
        net.attachTraffic(traffic);
        *lat = net.run(2000, 30000).avgLatencyCycles;
    }
    EXPECT_GT(transposeLat, neighborLat + 10.0);
}

TEST(Network, NoDvsPowerIsExactlyReference)
{
    Network net(smallConfig(PolicyKind::None));
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.01,
                           4);
    net.attachTraffic(traffic);
    const RunResults res = net.run(2000, 20000);
    EXPECT_NEAR(res.normalizedPower, 1.0, 1e-9);
    EXPECT_NEAR(res.savingsFactor, 1.0, 1e-9);
    EXPECT_NEAR(res.avgPowerW, 48 * 8 * 0.2, 1e-6);
    EXPECT_DOUBLE_EQ(res.avgChannelLevel, 0.0);
}

TEST(Network, IdleDvsNetworkBottomsOut)
{
    // No traffic at all: every controller walks its link to the slowest
    // level (9 transitions x ~11 us ~ 100 us); measuring after the
    // descent shows power at the 8.47x floor.
    Network net(smallConfig(PolicyKind::History));
    net.run(150000, 50000);
    EXPECT_NEAR(net.averageChannelLevel(), 9.0, 0.1);
    const double norm = net.ledger().normalizedPower(net.kernel().now());
    EXPECT_NEAR(norm, 23.6 / 200.0, 0.005);
}

TEST(Network, DvsSavesPowerAtLightLoadWithBoundedLatencyCost)
{
    RunResults base, dvs;
    for (auto [kind, out] :
         {std::pair<PolicyKind, RunResults *>{PolicyKind::None, &base},
          {PolicyKind::History, &dvs}}) {
        Network net(smallConfig(kind));
        PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                               0.005, 5);
        net.attachTraffic(traffic);
        *out = net.run(20000, 60000);
    }
    EXPECT_GT(dvs.savingsFactor, 2.0);
    // Worst-case bound: with every link at the 125 MHz floor each hop
    // costs ~16 extra cycles (serialization + propagation at 8x the
    // period), ~1.7x the baseline on this 4x4 uniform workload.
    EXPECT_LT(dvs.avgLatencyCycles, base.avgLatencyCycles * 1.8);
    // Throughput at light load is workload-limited, not network-limited.
    EXPECT_NEAR(dvs.throughputPktsPerCycle, base.throughputPktsPerCycle,
                base.throughputPktsPerCycle * 0.05);
}

TEST(Network, DvsSavingsShrinkAsLoadGrows)
{
    auto savingsAt = [](double rate) {
        Network net(smallConfig(PolicyKind::History));
        PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                               rate, 6);
        net.attachTraffic(traffic);
        return net.run(20000, 60000).savingsFactor;
    };
    const double light = savingsAt(0.002);
    const double heavy = savingsAt(0.05);
    EXPECT_GT(light, heavy);
}

TEST(Network, StaticLevelPolicyDrivesAllLinks)
{
    NetworkConfig cfg = smallConfig(PolicyKind::StaticLevel);
    cfg.staticLevel = 4;
    Network net(cfg);
    net.run(10000, 100000);
    EXPECT_NEAR(net.averageChannelLevel(), 4.0, 1e-9);
}

TEST(Network, CongestionDegradesGracefully)
{
    // Offered load far beyond capacity: throughput saturates below the
    // offered rate, latency explodes, nothing crashes or is lost.
    Network net(smallConfig(PolicyKind::None));
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.2,
                           7);
    net.attachTraffic(traffic);
    const RunResults res = net.run(5000, 30000);
    EXPECT_LT(res.throughputPktsPerCycle,
              res.offeredLoadPktsPerCycle * 0.8);
    EXPECT_GT(res.avgLatencyCycles, 100.0);
}

TEST(Network, DeterministicUnderSeed)
{
    auto runOnce = [] {
        Network net(smallConfig(PolicyKind::History));
        PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                               0.01, 42);
        net.attachTraffic(traffic);
        return net.run(5000, 20000);
    };
    const RunResults a = runOnce();
    const RunResults b = runOnce();
    EXPECT_EQ(a.packetsCreated, b.packetsCreated);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_DOUBLE_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_DOUBLE_EQ(a.avgPowerW, b.avgPowerW);
}

TEST(Network, TorusDeliversWithDatelines)
{
    NetworkConfig cfg = smallConfig();
    cfg.torus = true;
    Network net(cfg);
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.01,
                           8);
    net.attachTraffic(traffic);
    const RunResults res = net.run(2000, 30000);
    EXPECT_GT(res.packetsDelivered, 1000u);
    EXPECT_GE(res.packetsDelivered + 50, res.packetsCreated);
}

TEST(Network, AdaptiveRoutingDelivers)
{
    NetworkConfig cfg = smallConfig();
    cfg.routing = RoutingKind::MinimalAdaptive;
    Network net(cfg);
    PatternTraffic traffic(net.topology(), Pattern::Transpose, 0.02, 9);
    net.attachTraffic(traffic);
    const RunResults res = net.run(2000, 30000);
    EXPECT_GT(res.packetsDelivered, 2000u);
    EXPECT_GE(res.packetsDelivered + 100, res.packetsCreated);
}

TEST(Network, AdaptiveBeatsDorOnTranspose)
{
    // Transpose concentrates DOR traffic; adaptive routing spreads it.
    auto latencyWith = [](RoutingKind kind) {
        NetworkConfig cfg;
        cfg.radix = 4;
        cfg.policy = PolicyKind::None;
        cfg.routing = kind;
        Network net(cfg);
        PatternTraffic traffic(net.topology(), Pattern::Transpose, 0.06,
                               10);
        net.attachTraffic(traffic);
        return net.run(5000, 30000).avgLatencyCycles;
    };
    EXPECT_LT(latencyWith(RoutingKind::MinimalAdaptive),
              latencyWith(RoutingKind::Dor));
}

TEST(Network, TwoLevelWorkloadEndToEnd)
{
    Network net(smallConfig(PolicyKind::History));
    dvsnet::traffic::TwoLevelParams p;
    p.avgConcurrentTasks = 10;
    p.meanTaskDurationCycles = 20000;
    p.networkInjectionRate = 0.1;
    p.sourcesPerTask = 16;
    p.seed = 3;
    dvsnet::traffic::TwoLevelWorkload wl(net.topology(), p);
    net.attachTraffic(wl);
    const RunResults res = net.run(10000, 60000);
    EXPECT_GT(res.packetsDelivered, 1000u);
    EXPECT_GT(res.savingsFactor, 1.0);
}

TEST(Network, SourceQueueVisibility)
{
    Network net(smallConfig());
    net.injectPacket(0, 5);
    EXPECT_EQ(net.sourceQueueDepth(0), 1u);
    EXPECT_EQ(net.packetsCreatedAt(0), 1u);
    net.runUntilCycle(100);
    EXPECT_EQ(net.sourceQueueDepth(0), 0u);
}

TEST(Network, ControllerAccessors)
{
    Network withPolicy(smallConfig(PolicyKind::History));
    EXPECT_NE(withPolicy.controller(0), nullptr);
    Network without(smallConfig(PolicyKind::None));
    EXPECT_EQ(without.controller(0), nullptr);
}

TEST(Network, IdleNetworkQuiescesToEmptyActiveSets)
{
    // No traffic: once the initial step settles, every router is idle
    // and the per-cycle step set drains to nothing.
    Network net(smallConfig());
    net.runUntilCycle(50);
    EXPECT_EQ(net.activeRouterCount(), 0u);
    EXPECT_EQ(net.activeSourceCount(), 0u);
    // The heartbeat keeps ticking but steps no routers.
    const auto stepsBefore =
        net.observability().counterValue("network.router_steps");
    net.runUntilCycle(200);
    EXPECT_EQ(net.observability().counterValue("network.router_steps"),
              stepsBefore);
    EXPECT_GE(net.observability().counterValue("network.cycles"), 200u);

    // A single injection into the quiesced network wakes the source and
    // its router; delivery wakes ripple downstream from there.
    net.injectPacket(0, 15);
    EXPECT_GE(net.activeSourceCount(), 1u);
    net.runUntilCycle(net.currentCycle() + 1);
    EXPECT_GE(net.activeRouterCount(), 1u);
}

TEST(Network, LightLoadSkipsIdleRoutersAndWakesOnDelivery)
{
    Network net(smallConfig());
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.002,
                           7);
    net.attachTraffic(traffic);
    const RunResults res = net.run(1000, 10000);
    ASSERT_GT(res.packetsDelivered, 50u);

    const auto cycles = net.observability().counterValue("network.cycles");
    const auto steps =
        net.observability().counterValue("network.router_steps");
    const auto wakes =
        net.observability().counterValue("network.router_wakes");
    const auto nodes =
        static_cast<std::uint64_t>(net.topology().numNodes());

    // Gating must have skipped a meaningful share of router steps at
    // this load, and every skipped-then-used router implies a wake.
    EXPECT_LT(steps, cycles * nodes);
    EXPECT_GT(wakes, 0u);
}

TEST(Network, IdleRouterStepsFirstAtItsFlitsArrivalEdge)
{
    // A flit sent toward an idle router lands in its inbox at once; the
    // router steps first at the edge at or after the flit's arrival and
    // never before.  The level-1 link period (~1,260 ps) puts that
    // arrival between edges.
    NetworkConfig cfg = smallConfig();
    cfg.link.initialLevel = 1;
    Network net(cfg);
    const auto steps = [&net] {
        return net.observability().counterValue("network.router_steps");
    };
    net.runUntilCycle(10);
    ASSERT_EQ(steps(), 0u);

    // One five-flit packet 0 -> 1, one hop: router 0 steps while it
    // buffers the packet and sleeps once its tail has left.
    PortId port = -1;
    for (const auto &ch : net.topology().channels()) {
        if (ch.src == 0 && ch.dst == 1)
            port = ch.dstPort;
    }
    ASSERT_GE(port, 0);
    auto &inbox = net.router(1).flitInbox(port);
    net.injectPacket(0, 1);
    Cycle cycle = 10;
    while (inbox.size() < cfg.packetLength) {
        ASSERT_LT(cycle, 100u);
        net.runUntilCycle(++cycle);
    }
    const Tick arrival = inbox.nextArrival();
    ASSERT_NE(arrival % dvsnet::kRouterClockPeriod, 0u);
    const Cycle due =
        dvsnet::ticksToCycles(dvsnet::routerEdgeAtOrAfter(arrival));
    ASSERT_GT(due, cycle + 1);

    const auto before = steps();
    net.runUntilCycle(due - 1);
    EXPECT_EQ(steps(), before) << "a router stepped before it was due";
    EXPECT_EQ(net.router(1).stats().flitsArrived, 0u);
    net.runUntilCycle(due);
    EXPECT_EQ(steps(), before + 1);
    EXPECT_EQ(net.router(1).stats().flitsArrived, 1u);
}

TEST(Network, InboxStorageBoundedAtSaturation)
{
    // The saturated-uniform benchmark point (8x8 mesh, History DVS,
    // uniform traffic at 0.07 pkt/node/cycle): inboxes always hold a
    // future-dated flit or credit and never fully drain.  Each must
    // still hold at most twice its port buffer, not a slot for every
    // item it has ever received.
    const NetworkConfig cfg;
    Network net(cfg);
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.07,
                           1);
    net.attachTraffic(traffic);
    const RunResults res = net.run(2000, 6000);
    ASSERT_GT(res.packetsDelivered, 20000u);

    const std::size_t bound = 2 * cfg.router.bufferPerPort;
    for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
        auto &r = net.router(n);
        for (dvsnet::PortId p = 0; p < r.config().numPorts; ++p) {
            EXPECT_LE(r.flitInbox(p).storageSize(), bound)
                << "flit inbox of router " << n << " port " << p;
            EXPECT_LE(r.creditInbox(p).storageSize(), bound)
                << "credit inbox of router " << n << " port " << p;
        }
    }
}

TEST(Network, CollectMidRunThenRunningOnEqualsOneCollect)
{
    // The Pareto search continues a rung's run to the next rung's end
    // (exp::LiveNetwork), so a run collected mid-way, run on and
    // collected again must report what a run collected once at the end
    // reports, invariant check count included.  Ramps of 50 cycles make
    // links step inside the window, and the load keeps deliveries in
    // flight in the inboxes at the mid-run collect.
    NetworkConfig cfg = smallConfig(PolicyKind::History);
    cfg.link.voltageTransitionLatency = dvsnet::cyclesToTicks(50);
    const auto run = [&cfg](bool collectMidway) {
        Network net(cfg);
        PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                               0.05, 11);
        net.attachTraffic(traffic);
        net.runUntilCycle(1000);
        net.beginMeasurement();
        if (collectMidway) {
            net.runUntilCycle(3000);
            std::size_t inFlight = 0;
            for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
                auto &r = net.router(n);
                for (dvsnet::PortId p = 0; p < r.config().numPorts; ++p)
                    inFlight += r.flitInbox(p).size() + r.creditInbox(p).size();
            }
            std::uint64_t steps = 0;
            for (std::size_t c = 0; c < net.numChannels(); ++c)
                steps += net.channel(static_cast<dvsnet::ChannelId>(c))
                             .transitions();
            EXPECT_GT(inFlight, 0u) << "no delivery in flight at the collect";
            EXPECT_GT(steps, 0u) << "no link stepped before the collect";
            EXPECT_EQ(net.collect().measuredCycles, 2000u);
        }
        net.runUntilCycle(6000);
        return net.collect();
    };
    const RunResults once = run(false);
    const RunResults twice = run(true);
    EXPECT_EQ(once.measuredCycles, 5000u);
    EXPECT_GT(once.packetsDelivered, 1000u);
    EXPECT_EQ(toJson(twice).dump(), toJson(once).dump());
    EXPECT_EQ(twice.invariantChecks, once.invariantChecks);
}

TEST(NetworkDeathTest, SelfAddressedPacketRejected)
{
    Network net(smallConfig());
    EXPECT_DEATH(net.injectPacket(3, 3), "self-addressed");
}
