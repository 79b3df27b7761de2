/**
 * @file
 * End-to-end policy-variant tests: the dynamic-threshold extension and
 * controller cooldown wired through a live network, plus trace-based
 * policy comparison (the same literal packet sequence driving two
 * different policies).
 */

#include <gtest/gtest.h>

#include "network/network.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/trace.hpp"

using dvsnet::Cycle;
using dvsnet::NodeId;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;
using dvsnet::traffic::PacketStream;
using dvsnet::traffic::ReplayTraffic;
using dvsnet::traffic::TraceRecorder;

namespace
{

NetworkConfig
smallConfig(PolicyKind policy)
{
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = policy;
    return cfg;
}

} // namespace

TEST(DynamicThresholdNetwork, SavesPowerAtLightLoad)
{
    Network net(smallConfig(PolicyKind::DynamicThreshold));
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom, 0.005,
                           11);
    net.attachTraffic(traffic);
    const RunResults res = net.run(60000, 60000);
    EXPECT_GT(res.savingsFactor, 2.0);
    EXPECT_GE(res.packetsDelivered + 20, res.packetsCreated);
}

TEST(DynamicThresholdNetwork, BeatsFixedSettingOnSavingsAtLightLoad)
{
    // With a near-idle network the adaptive policy relaxes to setting
    // VI and should save at least as much as the fixed Table 1 setting.
    auto runWith = [](PolicyKind kind) {
        Network net(smallConfig(kind));
        PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                               0.002, 13);
        net.attachTraffic(traffic);
        return net.run(80000, 60000).savingsFactor;
    };
    const double fixed = runWith(PolicyKind::History);
    const double adaptive = runWith(PolicyKind::DynamicThreshold);
    EXPECT_GE(adaptive, fixed * 0.95);
}

TEST(CooldownNetwork, ReducesTransitionCount)
{
    auto transitionsWith = [](Cycle cooldown) {
        NetworkConfig cfg = smallConfig(PolicyKind::History);
        cfg.policyCooldown = cooldown;
        Network net(cfg);
        PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                               0.02, 17);
        net.attachTraffic(traffic);
        net.run(30000, 60000);
        double total = 0.0;
        for (std::size_t c = 0; c < net.numChannels(); ++c)
            total += static_cast<double>(
                net.channel(static_cast<dvsnet::ChannelId>(c))
                    .transitions());
        return total;
    };
    EXPECT_LT(transitionsWith(50), transitionsWith(0));
}

TEST(TracedPolicyComparison, SameWorkloadDifferentPolicies)
{
    // Record one workload, replay it against no-DVS and history-DVS:
    // identical offered traffic, so created counts match exactly and
    // the DVS run must still deliver everything at light load.
    dvsnet::topo::KAryNCube topo(4, 2, false);
    std::shared_ptr<const PacketStream> trace;
    {
        dvsnet::sim::Kernel kernel;
        PatternTraffic inner(topo, Pattern::UniformRandom, 0.008, 23);
        TraceRecorder recorder(inner);
        recorder.start(kernel, [](const dvsnet::traffic::PacketRequest &) {});
        kernel.run(dvsnet::cyclesToTicks(60000));
        trace = recorder.finish();
    }
    ASSERT_GT(trace->size(), 1000u);

    RunResults base, dvs;
    for (auto [kind, out] :
         {std::pair<PolicyKind, RunResults *>{PolicyKind::None, &base},
          {PolicyKind::History, &dvs}}) {
        Network net(smallConfig(kind));
        ReplayTraffic replay(trace);
        net.attachTraffic(replay);
        *out = net.run(5000, 50000);
    }
    EXPECT_EQ(base.packetsCreated, dvs.packetsCreated);
    EXPECT_GT(dvs.savingsFactor, base.savingsFactor);
    EXPECT_GE(dvs.avgLatencyCycles, base.avgLatencyCycles);
}
