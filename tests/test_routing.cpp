/**
 * @file
 * Routing tests: DOR minimality, x-then-y ordering, torus dateline VC
 * discipline, adaptive candidate sets and escape-path invariants.
 * Property-style sweeps walk every (src, dst) pair, and both algorithms
 * match an independent reference, which derives coordinates by
 * division, at every (cur, dst, inPort, inVc) of 1-3-D shapes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "router/routing.hpp"
#include "topo/topology.hpp"

using dvsnet::NodeId;
using dvsnet::PortId;
using dvsnet::VcId;
using dvsnet::router::DorRouting;
using dvsnet::router::MinimalAdaptiveRouting;
using dvsnet::router::RouteCandidate;
using dvsnet::router::RouteCandidates;
using dvsnet::topo::KAryNCube;

namespace
{

/** Walk a packet from src to dst with the given algorithm; returns hops.
 *  Always follows the first candidate and the lowest allowed VC. */
int
walk(const dvsnet::router::RoutingAlgorithm &algo, const KAryNCube &topo,
     NodeId src, NodeId dst, int maxHops = 100)
{
    RouteCandidates cands;
    NodeId cur = src;
    PortId inPort = topo.terminalPort();
    VcId inVc = 0;
    int hops = 0;
    while (hops <= maxHops) {
        algo.route(cur, inPort, inVc, dst, cands);
        if (cands[0].outPort == topo.terminalPort()) {
            EXPECT_EQ(cur, dst);
            return hops;
        }
        const auto &c = cands[0];
        EXPECT_NE(c.vcMask, 0u);
        VcId vc = 0;
        while (!(c.vcMask & (1u << vc)))
            ++vc;
        const NodeId next = topo.neighbor(cur, c.outPort);
        EXPECT_NE(next, dvsnet::kInvalidId);
        inPort = KAryNCube::oppositePort(c.outPort);
        inVc = vc;
        cur = next;
        ++hops;
    }
    ADD_FAILURE() << "walk exceeded " << maxHops << " hops";
    return hops;
}

} // namespace

TEST(DorMesh, DeliversToTerminalAtDestination)
{
    const KAryNCube m(4, 2, false);
    const DorRouting dor(m, 2);
    RouteCandidates cands;
    dor.route(5, m.terminalPort(), 0, 5, cands);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].outPort, m.terminalPort());
}

TEST(DorMesh, AllPairsMinimal)
{
    const KAryNCube m(5, 2, false);
    const DorRouting dor(m, 2);
    for (NodeId s = 0; s < m.numNodes(); ++s) {
        for (NodeId d = 0; d < m.numNodes(); ++d) {
            if (s == d)
                continue;
            EXPECT_EQ(walk(dor, m, s, d), m.hopDistance(s, d))
                << "src=" << s << " dst=" << d;
        }
    }
}

TEST(DorMesh, XBeforeY)
{
    const KAryNCube m(8, 2, false);
    const DorRouting dor(m, 2);
    RouteCandidates cands;
    // From (0,0) to (3,3): must move in x first.
    dor.route(m.nodeId({0, 0}), m.terminalPort(), 0, m.nodeId({3, 3}),
              cands);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].outPort, KAryNCube::dirPort(0, true));
    // From (3,0) to (3,3): x resolved, move in y.
    dor.route(m.nodeId({3, 0}), KAryNCube::dirPort(0, false), 0,
              m.nodeId({3, 3}), cands);
    EXPECT_EQ(cands[0].outPort, KAryNCube::dirPort(1, true));
}

TEST(DorMesh, AllVcsAllowedOnMesh)
{
    const KAryNCube m(4, 2, false);
    const DorRouting dor(m, 2);
    RouteCandidates cands;
    dor.route(0, m.terminalPort(), 0, 5, cands);
    EXPECT_EQ(cands[0].vcMask, 0b11u);
}

TEST(DorMesh, ThreeDimensional)
{
    const KAryNCube m(3, 3, false);
    const DorRouting dor(m, 2);
    for (NodeId s = 0; s < m.numNodes(); s += 2) {
        for (NodeId d = 0; d < m.numNodes(); d += 3) {
            if (s == d)
                continue;
            EXPECT_EQ(walk(dor, m, s, d), m.hopDistance(s, d));
        }
    }
}

TEST(DorTorus, AllPairsMinimal)
{
    const KAryNCube t(5, 2, true);
    const DorRouting dor(t, 2);
    for (NodeId s = 0; s < t.numNodes(); ++s) {
        for (NodeId d = 0; d < t.numNodes(); ++d) {
            if (s == d)
                continue;
            EXPECT_EQ(walk(dor, t, s, d), t.hopDistance(s, d))
                << "src=" << s << " dst=" << d;
        }
    }
}

TEST(DorTorus, NonWrappingRouteStaysOnVcZero)
{
    const KAryNCube t(8, 2, true);
    const DorRouting dor(t, 2);
    RouteCandidates cands;
    // (1,0) -> (3,0): forward distance 2, no wrap.
    dor.route(t.nodeId({1, 0}), t.terminalPort(), 0, t.nodeId({3, 0}),
              cands);
    EXPECT_EQ(cands[0].vcMask, 0b01u);
}

TEST(DorTorus, WrappingHopSwitchesToVcOne)
{
    const KAryNCube t(8, 2, true);
    const DorRouting dor(t, 2);
    RouteCandidates cands;
    // (7,0) -> (1,0): shorter way wraps through the 7->0 edge, which is
    // the dateline crossing itself.
    dor.route(t.nodeId({7, 0}), t.terminalPort(), 0, t.nodeId({1, 0}),
              cands);
    EXPECT_EQ(cands[0].outPort, KAryNCube::dirPort(0, true));
    EXPECT_EQ(cands[0].vcMask, 0b10u);
}

TEST(DorTorus, AfterCrossingStaysOnVcOneWithinDimension)
{
    const KAryNCube t(8, 2, true);
    const DorRouting dor(t, 2);
    RouteCandidates cands;
    // Packet that wrapped into (0,0) continuing +x to (2,0), arriving on
    // VC 1 from the -x side: must stay on VC 1.
    dor.route(t.nodeId({0, 0}), KAryNCube::dirPort(0, false), 1,
              t.nodeId({2, 0}), cands);
    EXPECT_EQ(cands[0].vcMask, 0b10u);
}

TEST(DorTorus, NewDimensionResetsToVcZero)
{
    const KAryNCube t(8, 2, true);
    const DorRouting dor(t, 2);
    RouteCandidates cands;
    // Packet arrived on VC 1 in x, now turning into y without a wrap:
    // the y dateline state restarts at VC 0.
    dor.route(t.nodeId({2, 1}), KAryNCube::dirPort(0, false), 1,
              t.nodeId({2, 3}), cands);
    EXPECT_EQ(cands[0].outPort, KAryNCube::dirPort(1, true));
    EXPECT_EQ(cands[0].vcMask, 0b01u);
}

TEST(Adaptive, AllPairsWalksAreMinimal)
{
    const KAryNCube m(5, 2, false);
    const MinimalAdaptiveRouting ada(m, 2);
    for (NodeId s = 0; s < m.numNodes(); ++s) {
        for (NodeId d = 0; d < m.numNodes(); ++d) {
            if (s == d)
                continue;
            EXPECT_EQ(walk(ada, m, s, d), m.hopDistance(s, d));
        }
    }
}

TEST(Adaptive, OffersBothProductiveDirections)
{
    const KAryNCube m(8, 2, false);
    const MinimalAdaptiveRouting ada(m, 2);
    RouteCandidates cands;
    ada.route(m.nodeId({2, 2}), m.terminalPort(), 0, m.nodeId({5, 5}),
              cands);
    // +x adaptive, +y adaptive, +x escape.
    ASSERT_EQ(cands.size(), 3u);
    EXPECT_EQ(cands[0].outPort, KAryNCube::dirPort(0, true));
    EXPECT_EQ(cands[1].outPort, KAryNCube::dirPort(1, true));
}

TEST(Adaptive, EscapeCandidateIsDorOnVcZero)
{
    const KAryNCube m(8, 2, false);
    const MinimalAdaptiveRouting ada(m, 2);
    RouteCandidates cands;
    ada.route(m.nodeId({2, 2}), m.terminalPort(), 0, m.nodeId({5, 5}),
              cands);
    const auto &escape = cands.back();
    EXPECT_EQ(escape.outPort, KAryNCube::dirPort(0, true));  // x first
    EXPECT_EQ(escape.vcMask, 0b01u);
}

TEST(Adaptive, AdaptiveCandidatesAvoidEscapeVc)
{
    const KAryNCube m(8, 2, false);
    const MinimalAdaptiveRouting ada(m, 2);
    RouteCandidates cands;
    ada.route(m.nodeId({1, 1}), m.terminalPort(), 0, m.nodeId({4, 6}),
              cands);
    for (std::size_t i = 0; i + 1 < cands.size(); ++i)
        EXPECT_EQ(cands[i].vcMask & 0b01u, 0u);
}

TEST(Adaptive, SingleDimensionRemainingHasEscapeAndAdaptive)
{
    const KAryNCube m(8, 2, false);
    const MinimalAdaptiveRouting ada(m, 2);
    RouteCandidates cands;
    ada.route(m.nodeId({5, 2}), KAryNCube::dirPort(0, false), 1,
              m.nodeId({5, 7}), cands);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].outPort, KAryNCube::dirPort(1, true));
    EXPECT_EQ(cands[1].outPort, KAryNCube::dirPort(1, true));
    EXPECT_EQ(cands[1].vcMask, 0b01u);
}

TEST(Adaptive, DeliversAtDestination)
{
    const KAryNCube m(4, 2, false);
    const MinimalAdaptiveRouting ada(m, 2);
    RouteCandidates cands;
    ada.route(9, KAryNCube::dirPort(1, false), 1, 9, cands);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].outPort, m.terminalPort());
}

namespace
{

/** Coordinate of `node` in `dim`, by division (not the topology's table). */
std::int32_t
divisionCoordinate(NodeId node, std::int32_t radix, std::int32_t dim)
{
    for (std::int32_t d = 0; d < dim; ++d)
        node /= radix;
    return node % radix;
}

/** Reference DOR: the first differing dimension, dateline VCs on tori. */
std::vector<RouteCandidate>
referenceDor(const KAryNCube &topo, std::int32_t numVcs, NodeId cur,
             PortId inPort, VcId inVc, NodeId dst)
{
    const std::uint32_t all = (1u << numVcs) - 1;
    if (cur == dst)
        return {{topo.terminalPort(), all}};
    const std::int32_t k = topo.radix();
    for (std::int32_t d = 0; d < topo.dims(); ++d) {
        const std::int32_t cc = divisionCoordinate(cur, k, d);
        const std::int32_t dc = divisionCoordinate(dst, k, d);
        if (cc == dc)
            continue;
        if (!topo.isTorus())
            return {{2 * d + (dc > cc ? 1 : 0), all}};
        const std::int32_t fwd = ((dc - cc) % k + k) % k;
        const bool plus = fwd <= k - fwd;
        const bool wraps = plus ? cc == k - 1 : cc == 0;
        const bool sameDim =
            inPort != topo.terminalPort() && inPort / 2 == d;
        const bool crossed = wraps || (sameDim && inVc >= 1);
        return {{2 * d + (plus ? 1 : 0), crossed ? 0b10u : 0b01u}};
    }
    ADD_FAILURE() << "no differing dimension";
    return {};
}

/** Reference minimal-adaptive: every productive direction on the
 *  adaptive VCs, then the DOR direction on escape VC 0. */
std::vector<RouteCandidate>
referenceAdaptive(const KAryNCube &topo, std::int32_t numVcs, NodeId cur,
                  NodeId dst)
{
    const std::uint32_t all = (1u << numVcs) - 1;
    if (cur == dst)
        return {{topo.terminalPort(), all}};
    std::vector<RouteCandidate> out;
    for (std::int32_t d = 0; d < topo.dims(); ++d) {
        const std::int32_t cc = divisionCoordinate(cur, topo.radix(), d);
        const std::int32_t dc = divisionCoordinate(dst, topo.radix(), d);
        if (cc != dc)
            out.push_back({2 * d + (dc > cc ? 1 : 0), all & ~1u});
    }
    out.push_back({out.front().outPort, 0b01u});
    return out;
}

/** `got` equals `want` entry for entry. */
void
expectSameCandidates(const RouteCandidates &got,
                     const std::vector<RouteCandidate> &want,
                     const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].outPort, want[i].outPort) << where << " #" << i;
        EXPECT_EQ(got[i].vcMask, want[i].vcMask) << where << " #" << i;
    }
}

struct Shape
{
    std::int32_t radix;
    std::int32_t dims;
    bool torus;
};

constexpr Shape kShapes[] = {{6, 1, false}, {5, 2, false}, {3, 3, false},
                             {6, 1, true},  {5, 2, true},  {3, 3, true}};

} // namespace

TEST(RoutingReference, DorMatchesAtEveryState)
{
    for (const Shape &shape : kShapes) {
        const KAryNCube topo(shape.radix, shape.dims, shape.torus);
        for (const std::int32_t numVcs : {2, 3}) {
            const DorRouting dor(topo, numVcs);
            RouteCandidates got;
            for (NodeId cur = 0; cur < topo.numNodes(); ++cur) {
                for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
                    for (PortId in = 0; in < topo.numPorts(); ++in) {
                        for (VcId vc = 0; vc < numVcs; ++vc) {
                            dor.route(cur, in, vc, dst, got);
                            expectSameCandidates(
                                got,
                                referenceDor(topo, numVcs, cur, in, vc,
                                             dst),
                                topo.name() + " cur=" +
                                    std::to_string(cur) + " dst=" +
                                    std::to_string(dst) + " in=" +
                                    std::to_string(in) + "/" +
                                    std::to_string(vc));
                        }
                    }
                }
            }
        }
    }
}

TEST(RoutingReference, AdaptiveMatchesAtEveryState)
{
    for (const Shape &shape : kShapes) {
        if (shape.torus)
            continue;  // minimal adaptive routing is mesh only
        const KAryNCube topo(shape.radix, shape.dims, shape.torus);
        for (const std::int32_t numVcs : {2, 3}) {
            const MinimalAdaptiveRouting ada(topo, numVcs);
            RouteCandidates got;
            for (NodeId cur = 0; cur < topo.numNodes(); ++cur) {
                for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
                    const auto want =
                        referenceAdaptive(topo, numVcs, cur, dst);
                    for (PortId in = 0; in < topo.numPorts(); ++in) {
                        for (VcId vc = 0; vc < numVcs; ++vc) {
                            ada.route(cur, in, vc, dst, got);
                            expectSameCandidates(
                                got, want,
                                topo.name() + " cur=" +
                                    std::to_string(cur) + " dst=" +
                                    std::to_string(dst));
                        }
                    }
                }
            }
        }
    }
}

TEST(RoutingReference, CandidatesHoldOnePerDimensionPlusEscape)
{
    // A router has at most kMaxPorts ports, 31 dimensions' worth, so a
    // route offers at most 31 directions plus the escape path.
    EXPECT_EQ(RouteCandidates::kCapacity,
              static_cast<std::size_t>(
                  (dvsnet::router::kMaxPorts - 1) / 2 + 1));
    RouteCandidates cands;
    for (std::size_t i = 0; i < RouteCandidates::kCapacity; ++i)
        cands.push_back({static_cast<PortId>(i), 1u});
    ASSERT_EQ(cands.size(), RouteCandidates::kCapacity);
    EXPECT_EQ(cands.back().outPort,
              static_cast<PortId>(RouteCandidates::kCapacity - 1));
    cands.clear();
    EXPECT_TRUE(cands.empty());
}
