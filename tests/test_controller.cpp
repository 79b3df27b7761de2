/**
 * @file
 * DVS controller tests: periodic window evaluation, policy-driven level
 * steps, busy-skip during transitions.  Uses a real router + DVS channel
 * wired to stub sinks, with a scripted policy for determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/controller.hpp"
#include "link/dvs_link.hpp"
#include "router/router.hpp"
#include "router/routing.hpp"
#include "sim/kernel.hpp"
#include "topo/topology.hpp"
#include "test_packets.hpp"

using dvsnet::Cycle;
using dvsnet::Tick;
using dvsnet::VcId;
using dvsnet::cyclesToTicks;
using dvsnet::core::DvsAction;
using dvsnet::core::DvsPolicy;
using dvsnet::core::PolicyInput;
using dvsnet::core::PortDvsController;
using dvsnet::link::DvsChannel;
using dvsnet::link::DvsLevelTable;
using dvsnet::link::DvsLinkParams;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::topo::KAryNCube;

namespace
{

/** Policy that replays a fixed action and records what it saw. */
class ScriptedPolicy final : public DvsPolicy
{
  public:
    DvsAction nextAction = DvsAction::Hold;
    std::vector<PolicyInput> seen;

    DvsAction
    decide(const PolicyInput &input) override
    {
        seen.push_back(input);
        return nextAction;
    }
};

struct Harness
{
    dvsnet::sim::Kernel kernel;
    KAryNCube topo{2, 2, false};
    dvsnet::router::DorRouting routing{topo, 2};
    dvsnet::router::RouterConfig cfg;
    dvsnet::testutil::TestPackets packets;
    dvsnet::router::Router router;
    DvsLevelTable table = DvsLevelTable::standard10();
    DvsChannel channel;
    Inbox<Flit> flitSink;
    Inbox<VcId> creditSink;
    ScriptedPolicy *policy;  // owned by the controller
    PortDvsController controller;

    explicit Harness(Cycle window = 200)
        : cfg(makeCfg()),
          router(0, cfg, routing, packets.table),
          channel(kernel, 0, table, DvsLinkParams{}, nullptr),
          controller(kernel, &channel, &router,
                     KAryNCube::dirPort(0, true), makePolicy(),
                     window)
    {
        channel.connectFlitSink(&flitSink);
        channel.connectCreditSink(&creditSink);
        router.connectOutput(KAryNCube::dirPort(0, true), &channel, 64);
        controller.start();
    }

    static dvsnet::router::RouterConfig
    makeCfg()
    {
        dvsnet::router::RouterConfig c;
        c.numPorts = 5;
        c.numVcs = 2;
        return c;
    }

    std::unique_ptr<DvsPolicy>
    makePolicy()
    {
        auto p = std::make_unique<ScriptedPolicy>();
        policy = p.get();
        return p;
    }
};

} // namespace

TEST(Controller, EvaluatesOncePerWindow)
{
    Harness h(200);
    h.kernel.run(cyclesToTicks(1000));
    EXPECT_EQ(h.controller.stats().windows, 5u);
    EXPECT_EQ(h.policy->seen.size(), 5u);
}

TEST(Controller, HoldLeavesLevelAlone)
{
    Harness h;
    h.policy->nextAction = DvsAction::Hold;
    h.kernel.run(cyclesToTicks(1000));
    EXPECT_EQ(h.channel.level(), 0u);
    EXPECT_EQ(h.controller.stats().holds, 5u);
}

TEST(Controller, SlowerStepsDown)
{
    Harness h;
    h.policy->nextAction = DvsAction::Slower;
    h.kernel.run(cyclesToTicks(300));
    EXPECT_GE(h.channel.level(), 1u);
    EXPECT_GE(h.controller.stats().stepsSlower, 1u);
}

TEST(Controller, BusyTransitionSkipsDecisions)
{
    Harness h(200);
    h.policy->nextAction = DvsAction::Slower;
    // A slow-down transition takes 100 link cycles + 10 us >> one 200-
    // cycle window, so several windows are skipped while busy.
    h.kernel.run(cyclesToTicks(2000));
    EXPECT_GE(h.controller.stats().skippedBusy, 1u);
    // Only one transition can have begun in the first 10+ us.
    EXPECT_LE(h.channel.level(), 2u);
}

TEST(Controller, FasterAtTopLevelIsSkippedNotFatal)
{
    Harness h;
    h.policy->nextAction = DvsAction::Faster;
    h.kernel.run(cyclesToTicks(600));
    EXPECT_EQ(h.channel.level(), 0u);
    EXPECT_EQ(h.controller.stats().skippedBusy,
              h.controller.stats().windows);
}

TEST(Controller, PolicySeesUtilizationMeasurements)
{
    Harness h(100);
    // Three flits over the first window of 100 cycles: LU = 3 link
    // cycles / 100 router cycles (both 1 ns at level 0) = 0.03.
    const Flit f = h.packets.single();
    h.channel.send(f, cyclesToTicks(1));
    h.channel.send(f, cyclesToTicks(2));
    h.channel.send(f, cyclesToTicks(3));
    h.kernel.run(cyclesToTicks(100));
    ASSERT_EQ(h.policy->seen.size(), 1u);
    EXPECT_NEAR(h.policy->seen[0].linkUtil, 0.03, 1e-9);
    EXPECT_NEAR(h.policy->seen[0].bufferUtil, 0.0, 1e-9);
    EXPECT_EQ(h.policy->seen[0].level, 0u);
}

TEST(Controller, WindowsAreIndependent)
{
    Harness h(100);
    const Flit f = h.packets.single();
    for (int i = 0; i < 10; ++i)
        h.channel.send(f, cyclesToTicks(1 + i));
    h.kernel.run(cyclesToTicks(200));
    ASSERT_EQ(h.policy->seen.size(), 2u);
    EXPECT_NEAR(h.policy->seen[0].linkUtil, 0.10, 1e-9);
    EXPECT_NEAR(h.policy->seen[1].linkUtil, 0.0, 1e-9);
}

TEST(Controller, LastMeasurementsExposed)
{
    Harness h(100);
    h.kernel.run(cyclesToTicks(100));
    EXPECT_DOUBLE_EQ(h.controller.lastLinkUtil(), 0.0);
    EXPECT_DOUBLE_EQ(h.controller.lastBufferUtil(), 0.0);
}

TEST(Controller, FullDescentUnderSustainedSlower)
{
    Harness h(200);
    h.policy->nextAction = DvsAction::Slower;
    // Each slow-down needs ~10 us + lock; run 200 us to bottom out.
    h.kernel.run(dvsnet::secondsToTicks(200e-6));
    EXPECT_EQ(h.channel.level(), 9u);
    EXPECT_EQ(h.controller.stats().stepsSlower, 9u);
}
