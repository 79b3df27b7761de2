/**
 * @file
 * CMP closed-loop workload tests: parameter validation, home-node
 * selection invariants, window enforcement, request/reply causality on
 * a live network, and a frozen 4x4 golden-master point (history-DVS vs
 * no-DVS) protecting the closed-loop path end to end.
 *
 * Golden pins were captured from the run itself at the spec below;
 * intentional behavior changes must update them (and say so in the
 * commit message).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/fatal.hpp"
#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "workload/cmp_workload.hpp"

using dvsnet::ConfigError;
using dvsnet::NodeId;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::topo::KAryNCube;
using dvsnet::workload::CmpParams;
using dvsnet::workload::CmpWorkload;

namespace
{

CmpParams
validParams()
{
    CmpParams p;
    p.packetRate = 0.5;
    p.seed = 7;
    return p;
}

} // namespace

TEST(CmpParams, ValidateCatchesBadValues)
{
    EXPECT_TRUE(validParams().validate().empty());

    CmpParams p = validParams();
    p.window = 0;
    EXPECT_FALSE(p.validate().empty());

    p = validParams();
    p.requestFlits = 0;
    EXPECT_FALSE(p.validate().empty());

    p = validParams();
    p.homeLatencyCycles = 0;
    EXPECT_FALSE(p.validate().empty());

    p = validParams();
    p.pHot = 1.5;
    EXPECT_FALSE(p.validate().empty());

    p = validParams();
    p.pHot = 0.5;  // hot probability without a hot set
    EXPECT_FALSE(p.validate().empty());

    p = validParams();
    p.packetRate = 0.0;
    EXPECT_FALSE(p.validate().empty());
}

TEST(CmpWorkload, ConstructorRejectsBadParams)
{
    const KAryNCube topo(4, 2, false);
    CmpParams bad = validParams();
    bad.window = -1;
    EXPECT_THROW(CmpWorkload(topo, bad), ConfigError);

    CmpParams hot = validParams();
    hot.hotNodes = 16;  // >= numNodes
    hot.pHot = 0.5;
    EXPECT_THROW(CmpWorkload(topo, hot), ConfigError);
}

TEST(CmpWorkload, HomeSelectionNeverTargetsSelf)
{
    const KAryNCube topo(4, 2, false);
    CmpParams p = validParams();
    p.hotNodes = 2;
    p.pHot = 0.7;
    CmpWorkload workload(topo, p);
    for (NodeId src = 0; src < topo.numNodes(); ++src) {
        for (int draw = 0; draw < 200; ++draw) {
            const NodeId home = workload.homeFor(src);
            EXPECT_NE(home, src);
            EXPECT_GE(home, 0);
            EXPECT_LT(home, topo.numNodes());
        }
    }
}

TEST(CmpWorkload, HotSkewConcentratesHomes)
{
    const KAryNCube topo(4, 2, false);
    CmpParams p = validParams();
    p.hotNodes = 2;
    p.pHot = 0.9;
    CmpWorkload workload(topo, p);
    int hot = 0;
    const int draws = 4000;
    for (int draw = 0; draw < draws; ++draw) {
        // src 15 never collides with the hot set {0, 1}.
        if (workload.homeFor(15) < 2)
            ++hot;
    }
    // Expect ~90%; 80% leaves lots of statistical room at n=4000.
    EXPECT_GT(hot, draws * 8 / 10);
}

TEST(CmpWorkload, ClosedLoopRunRespectsWindowAndCausality)
{
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    Network net(cfg);

    CmpParams p = validParams();
    p.window = 2;
    p.packetRate = 4.0;  // well past what the window admits
    CmpWorkload workload(net.topology(), p);
    net.attachTraffic(workload);
    net.run(1000, 5000);

    const auto &stats = workload.stats();
    EXPECT_GT(stats.transactionsIssued, 0u);
    EXPECT_GT(stats.transactionsCompleted, 0u);
    // Causality: replies only follow delivered requests, completions
    // only follow injected replies.
    EXPECT_LE(stats.requestsDelivered, stats.transactionsIssued);
    EXPECT_LE(stats.repliesInjected, stats.requestsDelivered);
    EXPECT_LE(stats.transactionsCompleted, stats.repliesInjected);
    // Saturated demand must have queued behind the window.
    EXPECT_GT(stats.demandQueued, 0u);
    // The window bounds in-flight transactions per core at all times,
    // so it also bounds them at the end of the run.
    for (NodeId node = 0; node < net.topology().numNodes(); ++node) {
        EXPECT_GE(workload.outstanding(node), 0);
        EXPECT_LE(workload.outstanding(node), p.window);
    }
    EXPECT_EQ(workload.roundTripCycles().count(),
              stats.transactionsCompleted);
    EXPECT_GT(workload.roundTripCycles().mean(), 0.0);
}

/**
 * Frozen golden master for one 4x4 CMP point, history-DVS vs no-DVS.
 * Same structure as test_golden_run.cpp: exact integer pins, 1e-9
 * relative pins on derived metrics.  Pinned with every transaction in
 * flight at the window start completing (its reply is echoed to the
 * workload), so no MSHR slot stays taken for the rest of the run.
 */
namespace
{

constexpr std::uint64_t kCmpGoldenSeed = 616161;
constexpr double kCmpRate = 0.6;
constexpr double kRelTol = 1e-9;

ExperimentSpec
cmpGoldenSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.network.radix = 4;
    spec.network.policy = policy;
    spec.workloadSpec = "cmp:window=4,reply_flits=5,home_latency=20";
    spec.warmup = 8000;
    spec.measure = 12000;
    return spec;
}

void
expectNearRel(double actual, double expected, const char *what)
{
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::abs(expected)))
        << what;
}

} // namespace

TEST(CmpGoldenRun, HistoryDvs4x4PinnedResults)
{
    const RunResults r = dvsnet::exp::runPoint(
        cmpGoldenSpec(PolicyKind::History), kCmpRate, kCmpGoldenSeed);

    EXPECT_EQ(r.measuredCycles, 12000u);
    // Closed loop: a window's worth of transactions is still in flight
    // when measurement ends, so delivered < created.
    EXPECT_EQ(r.packetsCreated, 7147u);
    EXPECT_EQ(r.packetsDelivered, 7122u);
    EXPECT_EQ(r.flitsEjected, 21466u);
    expectNearRel(r.offeredLoadPktsPerCycle, 0.59558333333333335,
                  "offered load");
    expectNearRel(r.avgLatencyCycles, 61.619206964335746, "avg latency");
    expectNearRel(r.normalizedPower, 0.60108860743785664,
                  "normalized power");
    expectNearRel(r.avgChannelLevel, 2.0, "avg channel level");
    expectNearRel(r.transitionEnergyJ, 2.8356236200898864e-05,
                  "transition energy");
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}

TEST(CmpGoldenRun, NoDvs4x4PinnedReferencePoint)
{
    const RunResults r = dvsnet::exp::runPoint(
        cmpGoldenSpec(PolicyKind::None), kCmpRate, kCmpGoldenSeed);

    EXPECT_EQ(r.measuredCycles, 12000u);
    EXPECT_EQ(r.packetsCreated, 7050u);
    EXPECT_EQ(r.packetsDelivered, 7028u);
    EXPECT_EQ(r.flitsEjected, 21187u);
    expectNearRel(r.offeredLoadPktsPerCycle, 0.58750000000000002,
                  "offered load");
    expectNearRel(r.avgLatencyCycles, 56.913769351166778, "avg latency");
    expectNearRel(r.normalizedPower, 1.0, "normalized power");
    expectNearRel(r.avgChannelLevel, 0.0, "avg channel level");
    EXPECT_EQ(r.transitionEnergyJ, 0.0);
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);
}
