/**
 * @file
 * Whole-network property tests: credit conservation under varied load,
 * policies, routing and topologies, checked mid-flight and after
 * drain.  These are the strongest structural guarantees in the
 * simulator — any accounting bug in the credit loop, inboxes, or
 * buffers trips them.
 */

#include <gtest/gtest.h>

#include "network/network.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/task_model.hpp"

using dvsnet::Cycle;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RoutingKind;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;

namespace
{

struct InvariantCase
{
    int radix;
    bool torus;
    PolicyKind policy;
    RoutingKind routing;
    double rate;
};

/**
 * Names the case in test output and ctest names.  Without it gtest
 * prints the struct's raw bytes, and the padding bytes after `torus`
 * are never written, so the names changed from one build to the next.
 */
void PrintTo(const InvariantCase &c, std::ostream *os)
{
    *os << (c.torus ? "torus" : "mesh") << c.radix << ' '
        << dvsnet::network::policyKindName(c.policy) << ' '
        << dvsnet::network::routingKindName(c.routing) << ' ' << c.rate;
}

class FlowControlInvariant
    : public ::testing::TestWithParam<InvariantCase>
{};

} // namespace

TEST_P(FlowControlInvariant, CreditConservationHolds)
{
    const auto &param = GetParam();
    NetworkConfig cfg;
    cfg.radix = param.radix;
    cfg.torus = param.torus;
    cfg.policy = param.policy;
    cfg.routing = param.routing;

    Network net(cfg);
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                           param.rate, 31);
    net.attachTraffic(traffic);

    // Check repeatedly mid-flight (the interesting case: flits and
    // credits in the air, links mid-transition).
    for (Cycle c = 5000; c <= 40000; c += 5000) {
        net.runUntilCycle(c);
        net.verifyFlowControlInvariants();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, FlowControlInvariant,
    ::testing::Values(
        InvariantCase{4, false, PolicyKind::None, RoutingKind::Dor, 0.02},
        InvariantCase{4, false, PolicyKind::History, RoutingKind::Dor,
                      0.02},
        InvariantCase{4, false, PolicyKind::History, RoutingKind::Dor,
                      0.15},  // congested, links transitioning
        InvariantCase{4, false, PolicyKind::History,
                      RoutingKind::MinimalAdaptive, 0.05},
        InvariantCase{4, true, PolicyKind::History, RoutingKind::Dor,
                      0.05},
        InvariantCase{8, false, PolicyKind::History, RoutingKind::Dor,
                      0.03},
        InvariantCase{2, false, PolicyKind::History, RoutingKind::Dor,
                      0.05}));

TEST(FlowControlDrain, AllCreditsReturnAfterQuiesce)
{
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::History;
    Network net(cfg);

    // A finite burst of hand-injected packets, then quiesce.
    dvsnet::Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        const auto src = static_cast<dvsnet::NodeId>(rng.uniformInt(
            std::uint64_t{16}));
        auto dst = static_cast<dvsnet::NodeId>(rng.uniformInt(
            std::uint64_t{15}));
        if (dst >= src)
            ++dst;
        net.injectPacket(src, dst);
    }
    net.runUntilCycle(20000);

    // Everything delivered, every credit home.
    EXPECT_EQ(net.metrics().inFlight(), 0u);
    EXPECT_EQ(net.metrics().latency().count() +
                  net.metrics().packetsEjected(),
              net.metrics().packetsEjected() * 2);  // all counted once
    net.verifyFlowControlInvariants();
    const auto perVc = net.config().router.bufferPerPort /
                       static_cast<std::size_t>(net.config().router.numVcs);
    for (const auto &ch : net.topology().channels()) {
        auto &up = net.router(ch.src);
        for (dvsnet::VcId v = 0; v < net.config().router.numVcs; ++v)
            EXPECT_EQ(up.creditCount(ch.srcPort, v), perVc);
    }
}
