/**
 * @file
 * Topology tests: coordinate round-trips, neighbor/channel symmetry,
 * mesh-vs-torus edge behavior, hop distances, locality spheres.
 * Parameterized across radix/dimension combinations.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "topo/topology.hpp"

using dvsnet::ChannelId;
using dvsnet::NodeId;
using dvsnet::PortId;
using dvsnet::kInvalidId;
using dvsnet::topo::KAryNCube;

TEST(Topology, NodeCountIsRadixToTheDims)
{
    EXPECT_EQ(KAryNCube(8, 2, false).numNodes(), 64);
    EXPECT_EQ(KAryNCube(4, 3, false).numNodes(), 64);
    EXPECT_EQ(KAryNCube(2, 4, true).numNodes(), 16);
}

TEST(Topology, PortCounts)
{
    const KAryNCube m(8, 2, false);
    EXPECT_EQ(m.numDirPorts(), 4);
    EXPECT_EQ(m.terminalPort(), 4);
    EXPECT_EQ(m.numPorts(), 5);
}

TEST(Topology, CoordinateRoundTrip)
{
    const KAryNCube m(5, 3, false);
    for (NodeId n = 0; n < m.numNodes(); ++n)
        EXPECT_EQ(m.nodeId(m.coordinates(n)), n);
}

TEST(Topology, CoordinateAccessorMatchesVector)
{
    const KAryNCube m(4, 3, true);
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        const auto coords = m.coordinates(n);
        for (std::int32_t d = 0; d < m.dims(); ++d)
            EXPECT_EQ(m.coordinate(n, d), coords[static_cast<std::size_t>(d)]);
    }
}

TEST(Topology, CoordinateTableMatchesDivisionForm)
{
    // coordinate() reads a table built once; every entry must equal the
    // division form it replaced, at every node and dimension, up to the
    // node cap (256^2 = kMaxNodes).
    const std::tuple<int, int, bool> shapes[] = {
        {7, 1, false}, {8, 2, false}, {5, 3, true}, {3, 4, false},
        {2, 12, true}, {256, 2, false}};
    for (const auto &[radix, dims, torus] : shapes) {
        const KAryNCube m(radix, dims, torus);
        for (NodeId n = 0; n < m.numNodes(); ++n) {
            NodeId rest = n;
            for (std::int32_t d = 0; d < dims; ++d) {
                ASSERT_EQ(m.coordinate(n, d), rest % radix)
                    << m.name() << " node " << n << " dim " << d;
                rest /= radix;
            }
        }
    }
    EXPECT_EQ(KAryNCube(256, 2, false).numNodes(), dvsnet::topo::kMaxNodes);
}

TEST(Topology, MeshEdgeNodesLackOutwardNeighbors)
{
    const KAryNCube m(8, 2, false);
    const NodeId corner = m.nodeId({0, 0});
    EXPECT_EQ(m.neighbor(corner, KAryNCube::dirPort(0, false)), kInvalidId);
    EXPECT_EQ(m.neighbor(corner, KAryNCube::dirPort(1, false)), kInvalidId);
    EXPECT_NE(m.neighbor(corner, KAryNCube::dirPort(0, true)), kInvalidId);
    EXPECT_NE(m.neighbor(corner, KAryNCube::dirPort(1, true)), kInvalidId);
}

TEST(Topology, TorusWrapsAround)
{
    const KAryNCube t(8, 2, true);
    const NodeId corner = t.nodeId({0, 0});
    EXPECT_EQ(t.neighbor(corner, KAryNCube::dirPort(0, false)),
              t.nodeId({7, 0}));
    EXPECT_EQ(t.neighbor(corner, KAryNCube::dirPort(1, false)),
              t.nodeId({0, 7}));
}

TEST(Topology, NeighborRelationIsSymmetric)
{
    for (bool torus : {false, true}) {
        const KAryNCube m(4, 2, torus);
        for (NodeId n = 0; n < m.numNodes(); ++n) {
            for (PortId p = 0; p < m.numDirPorts(); ++p) {
                const NodeId nb = m.neighbor(n, p);
                if (nb == kInvalidId)
                    continue;
                EXPECT_EQ(m.neighbor(nb, KAryNCube::oppositePort(p)), n);
            }
        }
    }
}

TEST(Topology, MeshChannelCount)
{
    // 8x8 mesh: 2 * (2 * 8 * 7) = 224 unidirectional channels.
    EXPECT_EQ(KAryNCube(8, 2, false).channels().size(), 224u);
}

TEST(Topology, TorusChannelCount)
{
    // 8x8 torus: 2 dims * 64 nodes * 2 directions = 256.
    EXPECT_EQ(KAryNCube(8, 2, true).channels().size(), 256u);
}

TEST(Topology, ChannelEndpointsConsistent)
{
    const KAryNCube m(4, 2, false);
    for (const auto &ch : m.channels()) {
        EXPECT_EQ(m.neighbor(ch.src, ch.srcPort), ch.dst);
        EXPECT_EQ(ch.dstPort, KAryNCube::oppositePort(ch.srcPort));
        EXPECT_EQ(m.channelAt(ch.src, ch.srcPort), ch.id);
    }
}

TEST(Topology, ReverseChannelIsInvolution)
{
    for (bool torus : {false, true}) {
        const KAryNCube m(4, 2, torus);
        for (const auto &ch : m.channels()) {
            const ChannelId rev = m.reverseChannel(ch.id);
            EXPECT_NE(rev, ch.id);
            EXPECT_EQ(m.reverseChannel(rev), ch.id);
            const auto &r = m.channels()[static_cast<std::size_t>(rev)];
            EXPECT_EQ(r.src, ch.dst);
            EXPECT_EQ(r.dst, ch.src);
        }
    }
}

TEST(Topology, HopDistanceMesh)
{
    const KAryNCube m(8, 2, false);
    EXPECT_EQ(m.hopDistance(m.nodeId({0, 0}), m.nodeId({7, 7})), 14);
    EXPECT_EQ(m.hopDistance(m.nodeId({3, 3}), m.nodeId({3, 3})), 0);
    EXPECT_EQ(m.hopDistance(m.nodeId({2, 5}), m.nodeId({4, 1})), 6);
}

TEST(Topology, HopDistanceTorusTakesShortWay)
{
    const KAryNCube t(8, 2, true);
    EXPECT_EQ(t.hopDistance(t.nodeId({0, 0}), t.nodeId({7, 7})), 2);
    EXPECT_EQ(t.hopDistance(t.nodeId({0, 0}), t.nodeId({4, 4})), 8);
}

TEST(Topology, HopDistanceSymmetric)
{
    const KAryNCube m(5, 2, false);
    for (NodeId a = 0; a < m.numNodes(); a += 3)
        for (NodeId b = 0; b < m.numNodes(); b += 7)
            EXPECT_EQ(m.hopDistance(a, b), m.hopDistance(b, a));
}

TEST(Topology, NodesWithinExcludesCenterAndRespectsRadius)
{
    const KAryNCube m(8, 2, false);
    const NodeId center = m.nodeId({4, 4});
    const auto sphere = m.nodesWithin(center, 2);
    EXPECT_EQ(sphere.size(), 12u);  // diamond of radius 2 in 2-D
    for (NodeId n : sphere) {
        EXPECT_NE(n, center);
        EXPECT_LE(m.hopDistance(center, n), 2);
    }
}

TEST(Topology, NodesWithinAtCornerIsSmaller)
{
    const KAryNCube m(8, 2, false);
    const auto sphere = m.nodesWithin(m.nodeId({0, 0}), 2);
    EXPECT_EQ(sphere.size(), 5u);  // (1,0),(0,1),(2,0),(1,1),(0,2)
}

TEST(Topology, Name)
{
    EXPECT_EQ(KAryNCube(8, 2, false).name(), "8-ary 2-mesh");
    EXPECT_EQ(KAryNCube(4, 3, true).name(), "4-ary 3-torus");
}

class TopologyGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(TopologyGeometry, EveryChannelHasAReverse)
{
    const auto [radix, dims, torus] = GetParam();
    const KAryNCube m(radix, dims, torus);
    for (const auto &ch : m.channels())
        EXPECT_NE(m.reverseChannel(ch.id), kInvalidId);
}

TEST_P(TopologyGeometry, ChannelIdsAreDenseAndUnique)
{
    const auto [radix, dims, torus] = GetParam();
    const KAryNCube m(radix, dims, torus);
    std::set<ChannelId> ids;
    for (const auto &ch : m.channels())
        ids.insert(ch.id);
    EXPECT_EQ(ids.size(), m.channels().size());
    EXPECT_EQ(*ids.begin(), 0);
    EXPECT_EQ(*ids.rbegin(),
              static_cast<ChannelId>(m.channels().size()) - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyGeometry,
    ::testing::Values(std::make_tuple(2, 2, false),
                      std::make_tuple(4, 2, false),
                      std::make_tuple(8, 2, false),
                      std::make_tuple(4, 3, false),
                      std::make_tuple(4, 2, true),
                      std::make_tuple(8, 2, true),
                      std::make_tuple(3, 3, true)));
