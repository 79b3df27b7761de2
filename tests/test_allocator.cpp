/**
 * @file
 * Separable allocator tests: structural invariants (one grant per
 * resource and per requester), mask respect, fairness under contention.
 * Both allocators are driven through their one `allocate`; a VC
 * request waits in its allocator from `request` to its grant, and a
 * downstream VC is free from its `release` to its grant.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "router/allocator.hpp"
#include "switch_bids.hpp"

using dvsnet::kInvalidId;
using dvsnet::PortId;
using dvsnet::VcId;
using dvsnet::router::PortSet;
using dvsnet::router::SeparableSwitchAllocator;
using dvsnet::router::SeparableVcAllocator;
using dvsnet::router::VcGrant;
using dvsnet::testutil::allocateBids;
using dvsnet::testutil::SwitchBid;

namespace
{

/** Free the VCs in `freeVcs` at each of `numPorts` output ports. */
void
releaseAtEveryPort(SeparableVcAllocator &va, PortId numPorts,
                   std::uint32_t freeVcs)
{
    for (PortId p = 0; p < numPorts; ++p)
        va.release(p, freeVcs);
}

/** An input VC starting to wait for a downstream VC. */
struct Wait
{
    std::int32_t requester;
    PortId outPort;
    std::uint32_t vcMask;
};

/** File `waits` with `va`, then allocate once. */
std::vector<VcGrant>
waitAndAllocate(SeparableVcAllocator &va, const std::vector<Wait> &waits)
{
    for (const auto &w : waits)
        va.request(w.requester, w.outPort, w.vcMask);
    return va.allocate();
}

} // namespace

TEST(VcAllocator, EmptyRequestsEmptyGrants)
{
    SeparableVcAllocator va(5, 2, 10);
    releaseAtEveryPort(va, 5, 0b11);
    EXPECT_FALSE(va.anyReady());
    EXPECT_TRUE(va.allocate().empty());
}

TEST(VcAllocator, SingleRequestGranted)
{
    SeparableVcAllocator va(5, 2, 10);
    releaseAtEveryPort(va, 5, 0b11);
    const auto grants = waitAndAllocate(va, {{3, 2, 0b11}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].requester, 3);
    EXPECT_EQ(grants[0].outPort, 2);
    EXPECT_TRUE(grants[0].outVc == 0 || grants[0].outVc == 1);
}

TEST(VcAllocator, RespectsVcMask)
{
    SeparableVcAllocator va(5, 2, 10);
    releaseAtEveryPort(va, 5, 0b11);
    const auto grants = waitAndAllocate(va, {{0, 1, 0b10}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outVc, 1);
}

TEST(VcAllocator, RespectsBusyVcs)
{
    SeparableVcAllocator va(5, 2, 10);
    releaseAtEveryPort(va, 5, 0b10);
    const auto grants = waitAndAllocate(va, {{0, 0, 0b11}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outVc, 1);
}

TEST(VcAllocator, NoGrantWhenAllBusy)
{
    SeparableVcAllocator va(5, 2, 10);
    EXPECT_TRUE(waitAndAllocate(va, {{0, 0, 0b11}}).empty());
    EXPECT_FALSE(va.anyReady());
}

TEST(VcAllocator, AtMostOneGrantPerRequester)
{
    SeparableVcAllocator va(2, 2, 4);
    releaseAtEveryPort(va, 2, 0b11);
    // One requester wanting both VCs of port 0: must get exactly one.
    const auto grants = waitAndAllocate(va, {{1, 0, 0b11}});
    EXPECT_EQ(grants.size(), 1u);
}

TEST(VcAllocator, AtMostOneGrantPerResource)
{
    SeparableVcAllocator va(2, 2, 4);
    releaseAtEveryPort(va, 2, 0b11);
    // Three requesters all wanting port 1: grants must hold distinct VCs.
    const auto grants =
        waitAndAllocate(va, {{0, 1, 0b11}, {1, 1, 0b11}, {2, 1, 0b11}});
    EXPECT_EQ(grants.size(), 2u);  // only 2 VCs exist on the port
    std::set<VcId> vcs;
    for (const auto &g : grants)
        vcs.insert(g.outVc);
    EXPECT_EQ(vcs.size(), grants.size());
}

TEST(VcAllocator, DisjointPortsAllGranted)
{
    SeparableVcAllocator va(4, 2, 8);
    releaseAtEveryPort(va, 4, 0b11);
    const auto grants = waitAndAllocate(
        va, {{0, 0, 0b01}, {1, 1, 0b01}, {2, 2, 0b01}, {3, 3, 0b01}});
    EXPECT_EQ(grants.size(), 4u);
}

TEST(VcAllocator, ContendersEventuallyAllServed)
{
    // Three contenders for one VC; each round the winner stops waiting,
    // its VC is released, and it waits again, so all three are waiting
    // for a free VC every round.
    SeparableVcAllocator va(1, 1, 3);
    std::vector<Wait> waits{{0, 0, 0b1}, {1, 0, 0b1}, {2, 0, 0b1}};
    std::set<int> winners;
    for (int round = 0; round < 3; ++round) {
        va.release(0, 0b1);
        const auto grants = waitAndAllocate(va, waits);
        ASSERT_EQ(grants.size(), 1u);
        winners.insert(grants[0].requester);
        waits = {{grants[0].requester, 0, 0b1}};
    }
    EXPECT_EQ(winners.size(), 3u);  // round-robin over three rounds
}

TEST(VcAllocator, UngrantedRequestsKeepWaiting)
{
    // A request waits across calls until a VC it allows is released; a
    // grant ends the wait and takes the VC until its next release.
    SeparableVcAllocator va(3, 2, 6);
    releaseAtEveryPort(va, 3, 0b01);
    va.request(4, 2, 0b10);
    EXPECT_FALSE(va.anyReady());
    EXPECT_TRUE(va.allocate().empty());
    va.release(2, 0b10);
    EXPECT_TRUE(va.anyReady());
    const auto grants = va.allocate();
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].requester, 4);
    EXPECT_EQ(grants[0].outPort, 2);
    EXPECT_EQ(grants[0].outVc, 1);
    EXPECT_EQ(va.freeVcs(2), 0b01u);
    EXPECT_FALSE(va.anyReady());
    EXPECT_TRUE(va.allocate().empty());
}

TEST(SwitchAllocator, EmptyRequestsEmptyGrants)
{
    SeparableSwitchAllocator sa(5, 2);
    EXPECT_TRUE(allocateBids(sa, 5, 2, {}).empty());
}

TEST(SwitchAllocator, SingleRequestGranted)
{
    SeparableSwitchAllocator sa(5, 2);
    const auto grants = allocateBids(sa, 5, 2, {{1, 0, 4}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].inPort, 1);
    EXPECT_EQ(grants[0].inVc, 0);
    EXPECT_EQ(grants[0].outPort, 4);
}

TEST(SwitchAllocator, OneGrantPerInputPort)
{
    SeparableSwitchAllocator sa(5, 2);
    // Two VCs of input 0 requesting different outputs: input stage picks
    // one.
    const auto grants = allocateBids(sa, 5, 2, {{0, 0, 1}, {0, 1, 2}});
    EXPECT_EQ(grants.size(), 1u);
}

TEST(SwitchAllocator, OneGrantPerOutputPort)
{
    SeparableSwitchAllocator sa(5, 2);
    // Three inputs contending for output 2.
    const auto grants =
        allocateBids(sa, 5, 2, {{0, 0, 2}, {1, 0, 2}, {3, 1, 2}});
    EXPECT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outPort, 2);
}

TEST(SwitchAllocator, ParallelTransfersAllGranted)
{
    SeparableSwitchAllocator sa(5, 2);
    const auto grants =
        allocateBids(sa, 5, 2, {{0, 0, 1}, {1, 0, 2}, {2, 1, 3}});
    EXPECT_EQ(grants.size(), 3u);
}

TEST(SwitchAllocator, GrantsAreASubsetOfRequests)
{
    SeparableSwitchAllocator sa(3, 2);
    const std::vector<SwitchBid> reqs{{0, 0, 1}, {1, 1, 1}, {2, 0, 0}};
    for (const auto &g : allocateBids(sa, 3, 2, reqs)) {
        bool found = false;
        for (const auto &r : reqs) {
            found |= r.inPort == g.inPort && r.inVc == g.inVc &&
                     r.outPort == g.outPort;
        }
        EXPECT_TRUE(found);
    }
}

TEST(SwitchAllocator, FairAcrossInputsOverRounds)
{
    SeparableSwitchAllocator sa(3, 1);
    std::vector<int> wins(3, 0);
    for (int round = 0; round < 300; ++round) {
        const auto grants =
            allocateBids(sa, 3, 1, {{0, 0, 2}, {1, 0, 2}, {2, 0, 2}});
        ASSERT_EQ(grants.size(), 1u);
        ++wins[static_cast<std::size_t>(grants[0].inPort)];
    }
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(SwitchAllocator, VcFairnessWithinInputPort)
{
    SeparableSwitchAllocator sa(2, 2);
    std::vector<int> wins(2, 0);
    for (int round = 0; round < 100; ++round) {
        const auto grants = allocateBids(sa, 2, 2, {{0, 0, 1}, {0, 1, 1}});
        ASSERT_EQ(grants.size(), 1u);
        ++wins[static_cast<std::size_t>(grants[0].inVc)];
    }
    EXPECT_EQ(wins[0], 50);
    EXPECT_EQ(wins[1], 50);
}

TEST(SwitchAllocator, ReadsOnlyRequestingPorts)
{
    // The router leaves stale masks at ports that bid in an earlier
    // cycle; outside reqPorts the allocator must not read them, nor the
    // output ports they would select (kInvalidId here).
    SeparableSwitchAllocator sa(3, 2);
    const std::vector<std::uint32_t> vcReqMasks{0b10, 0b11, 0b01};
    std::vector<PortId> outPorts(6, kInvalidId);
    outPorts[0 * 2 + 1] = 2;
    PortSet reqPorts;
    reqPorts.set(0);
    const auto &grants = sa.allocate(vcReqMasks, outPorts, reqPorts);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].inPort, 0);
    EXPECT_EQ(grants[0].inVc, 1);
    EXPECT_EQ(grants[0].outPort, 2);
}
