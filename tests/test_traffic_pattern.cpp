/**
 * @file
 * Traffic-pattern tests: permutation correctness, uniform destination
 * properties, and Poisson pattern-traffic generation rates.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "sim/kernel.hpp"
#include "topo/topology.hpp"
#include "traffic/pattern.hpp"
#include "traffic/pattern_traffic.hpp"
#include "workload/factory.hpp"

using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::cyclesToTicks;
using dvsnet::topo::KAryNCube;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;
using dvsnet::traffic::patternDestination;
using dvsnet::traffic::patternName;

TEST(Pattern, ParseRoundTrip)
{
    // Every pattern's name is its workload's: the registry builds that
    // pattern's traffic under it.
    const KAryNCube m(4, 2, false);
    const dvsnet::workload::WorkloadContext ctx{m, 1.0, 1, {}};
    for (const Pattern p : dvsnet::traffic::kAllPatterns) {
        const auto generator =
            dvsnet::workload::buildWorkload(patternName(p), ctx);
        ASSERT_NE(dynamic_cast<const PatternTraffic *>(generator.get()),
                  nullptr)
            << patternName(p);
        EXPECT_STREQ(generator->name(), patternName(p));
    }
    EXPECT_STREQ(patternName(Pattern::BitComplement), "bit-complement");
    EXPECT_STREQ(patternName(Pattern::BitReverse), "bit-reverse");
}

TEST(Pattern, UniformNeverSelfAddresses)
{
    const KAryNCube m(4, 2, false);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const NodeId src = static_cast<NodeId>(i % m.numNodes());
        EXPECT_NE(patternDestination(Pattern::UniformRandom, src, m, rng),
                  src);
    }
}

TEST(Pattern, UniformCoversAllDestinations)
{
    const KAryNCube m(4, 2, false);
    Rng rng(2);
    std::set<NodeId> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(patternDestination(Pattern::UniformRandom, 0, m, rng));
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(m.numNodes() - 1));
}

TEST(Pattern, TransposeSwapsCoordinates)
{
    const KAryNCube m(8, 2, false);
    Rng rng(3);
    const NodeId src = m.nodeId({2, 5});
    EXPECT_EQ(patternDestination(Pattern::Transpose, src, m, rng),
              m.nodeId({5, 2}));
}

TEST(Pattern, TransposeDiagonalMapsToSelf)
{
    const KAryNCube m(8, 2, false);
    Rng rng(4);
    const NodeId src = m.nodeId({3, 3});
    EXPECT_EQ(patternDestination(Pattern::Transpose, src, m, rng), src);
}

TEST(Pattern, BitComplement)
{
    const KAryNCube m(8, 2, false);  // 64 nodes, 6 bits
    Rng rng(5);
    EXPECT_EQ(patternDestination(Pattern::BitComplement, 0, m, rng), 63);
    EXPECT_EQ(patternDestination(Pattern::BitComplement, 0b101010, m, rng),
              0b010101);
}

TEST(Pattern, BitReverse)
{
    const KAryNCube m(8, 2, false);
    Rng rng(6);
    EXPECT_EQ(patternDestination(Pattern::BitReverse, 0b000001, m, rng),
              0b100000);
    EXPECT_EQ(patternDestination(Pattern::BitReverse, 0b110000, m, rng),
              0b000011);
}

TEST(Pattern, ShuffleRotatesLeft)
{
    const KAryNCube m(8, 2, false);
    Rng rng(7);
    EXPECT_EQ(patternDestination(Pattern::Shuffle, 0b100001, m, rng),
              0b000011);
}

TEST(Pattern, PermutationsAreBijections)
{
    const KAryNCube m(8, 2, false);
    Rng rng(8);
    for (Pattern p : {Pattern::BitComplement, Pattern::BitReverse,
                      Pattern::Shuffle, Pattern::Transpose}) {
        std::set<NodeId> image;
        for (NodeId s = 0; s < m.numNodes(); ++s)
            image.insert(patternDestination(p, s, m, rng));
        EXPECT_EQ(image.size(), static_cast<std::size_t>(m.numNodes()))
            << patternName(p);
    }
}

TEST(Pattern, TornadoMovesHalfwayEachDimension)
{
    const KAryNCube m(8, 2, false);
    Rng rng(9);
    EXPECT_EQ(patternDestination(Pattern::Tornado, m.nodeId({1, 2}), m,
                                 rng),
              m.nodeId({5, 6}));
}

TEST(Pattern, NeighborWrapsInDimensionZero)
{
    const KAryNCube m(8, 2, false);
    Rng rng(10);
    EXPECT_EQ(patternDestination(Pattern::Neighbor, m.nodeId({7, 3}), m,
                                 rng),
              m.nodeId({0, 3}));
}

TEST(PatternTraffic, GeneratesNearTargetRate)
{
    const KAryNCube m(4, 2, false);
    dvsnet::sim::Kernel kernel;
    PatternTraffic gen(m, Pattern::UniformRandom, 0.01, 42);

    std::uint64_t packets = 0;
    gen.start(kernel,
              [&](const dvsnet::traffic::PacketRequest &) { ++packets; });
    const dvsnet::Cycle horizon = 100000;
    kernel.run(cyclesToTicks(horizon));

    // 16 nodes * 0.01 pkt/node/cycle * 100k cycles = 16000 expected.
    const double expected = 16 * 0.01 * static_cast<double>(horizon);
    EXPECT_NEAR(static_cast<double>(packets), expected, expected * 0.05);
}

TEST(PatternTraffic, SourcesSpreadAcrossNodes)
{
    const KAryNCube m(4, 2, false);
    dvsnet::sim::Kernel kernel;
    PatternTraffic gen(m, Pattern::UniformRandom, 0.02, 7);

    std::map<NodeId, int> perSrc;
    gen.start(kernel, [&](const dvsnet::traffic::PacketRequest &r) {
        ++perSrc[r.src];
    });
    kernel.run(cyclesToTicks(50000));
    EXPECT_EQ(perSrc.size(), 16u);
}

TEST(PatternTraffic, DeterministicUnderSeed)
{
    const KAryNCube m(4, 2, false);
    std::vector<std::pair<NodeId, NodeId>> a, b;
    for (auto *log : {&a, &b}) {
        dvsnet::sim::Kernel kernel;
        PatternTraffic gen(m, Pattern::UniformRandom, 0.01, 99);
        gen.start(kernel, [log](const dvsnet::traffic::PacketRequest &r) {
            log->push_back({r.src, r.dst});
        });
        kernel.run(cyclesToTicks(20000));
    }
    EXPECT_EQ(a, b);
}
