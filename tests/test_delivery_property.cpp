/**
 * @file
 * Randomized delivery properties: across seeds, loads, policies and
 * packet lengths, every packet injected into a bounded-load network is
 * delivered intact (no loss, duplication, or reorder — enforced inside
 * MetricsCollector) and latency never falls below the physical minimum.
 */

#include <gtest/gtest.h>

#include "network/network.hpp"
#include "traffic/pattern_traffic.hpp"

using dvsnet::Cycle;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;

namespace
{

struct DeliveryCase
{
    std::uint64_t seed;
    double rate;
    PolicyKind policy;
    std::uint16_t packetLength;
};

/**
 * Names the case in test output and ctest names: seed, policy, rate and
 * packet length ("101 none 0.01 len5").  Without it gtest prints the
 * struct's raw bytes, padding included, so the names changed from one
 * build to the next.
 */
void PrintTo(const DeliveryCase &c, std::ostream *os)
{
    *os << c.seed << ' ' << dvsnet::network::policyKindName(c.policy)
        << ' ' << c.rate << " len" << c.packetLength;
}

class DeliveryProperty : public ::testing::TestWithParam<DeliveryCase>
{};

} // namespace

TEST_P(DeliveryProperty, EveryPacketArrivesIntact)
{
    const auto &param = GetParam();
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = param.policy;
    cfg.packetLength = param.packetLength;

    Network net(cfg);
    PatternTraffic traffic(net.topology(), Pattern::UniformRandom,
                           param.rate, param.seed);
    net.attachTraffic(traffic);
    const RunResults res = net.run(3000, 25000);

    ASSERT_GT(res.packetsCreated, 100u);
    // Everything created in the window is delivered, modulo the tail
    // still in flight at the horizon.
    EXPECT_GE(res.packetsDelivered + 30, res.packetsCreated);

    // Physical floor: source router pipeline (13) + ejection; nothing
    // can beat it.
    EXPECT_GE(res.avgLatencyCycles, 13.0);

    // Flit conservation: ejected flits = delivered packets * length
    // plus partially ejected packets' flits; at least len * delivered.
    EXPECT_GE(res.flitsEjected,
              res.packetsDelivered * param.packetLength);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsLoadsPoliciesLengths, DeliveryProperty,
    ::testing::Values(
        DeliveryCase{101, 0.01, PolicyKind::None, 5},
        DeliveryCase{202, 0.02, PolicyKind::None, 1},
        DeliveryCase{303, 0.01, PolicyKind::History, 5},
        DeliveryCase{404, 0.02, PolicyKind::History, 9},
        DeliveryCase{505, 0.03, PolicyKind::History, 2},
        DeliveryCase{606, 0.01, PolicyKind::DynamicThreshold, 5},
        DeliveryCase{707, 0.02, PolicyKind::StaticLevel, 5},
        DeliveryCase{808, 0.015, PolicyKind::LinkUtilOnly, 5}));
