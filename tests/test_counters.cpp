/**
 * @file
 * CounterRegistry/SimAssert tests: stable references, fail-fast vs
 * recording mode, message caps, JSON export, and the observability
 * wiring on DvsChannel (counters plus the `dvs.transition_sequencing`
 * invariant over real transitions).
 */

#include <gtest/gtest.h>

#include "common/counters.hpp"
#include "link/dvs_link.hpp"
#include "power/energy_ledger.hpp"
#include "sim/kernel.hpp"
#include "test_packets.hpp"

using dvsnet::CounterRegistry;
using dvsnet::Json;
using dvsnet::SimAssert;
using dvsnet::secondsToTicks;
using dvsnet::link::DvsChannel;
using dvsnet::link::DvsLevelTable;
using dvsnet::link::DvsLinkParams;
using dvsnet::power::EnergyLedger;
using dvsnet::router::Flit;
using dvsnet::router::Inbox;
using dvsnet::sim::Kernel;
using dvsnet::VcId;

TEST(SimAssert, CountsChecksAndPasses)
{
    SimAssert inv("test.inv");
    for (int i = 0; i < 5; ++i)
        inv.check(true, "never shown");
    EXPECT_EQ(inv.checks(), 5u);
    EXPECT_EQ(inv.failures(), 0u);
    EXPECT_TRUE(inv.messages().empty());
}

TEST(SimAssert, RecordsViolationsWhenNotFailFast)
{
    SimAssert inv("test.inv", /*failFast=*/false);
    inv.check(false, "value was ", 42);
    inv.check(true);
    inv.check(false, "second");
    EXPECT_EQ(inv.checks(), 3u);
    EXPECT_EQ(inv.failures(), 2u);
    ASSERT_EQ(inv.messages().size(), 2u);
    EXPECT_EQ(inv.messages()[0], "value was 42");
    EXPECT_EQ(inv.messages()[1], "second");
}

TEST(SimAssert, MessagesCappedButFailuresKeepCounting)
{
    SimAssert inv("test.inv", false);
    for (int i = 0; i < 20; ++i)
        inv.check(false, "violation ", i);
    EXPECT_EQ(inv.failures(), 20u);
    EXPECT_EQ(inv.messages().size(), SimAssert::kMaxMessages);
    EXPECT_EQ(inv.messages().front(), "violation 0");
}

TEST(SimAssert, FailFastPanics)
{
    SimAssert inv("test.inv");
    EXPECT_TRUE(inv.failFast());
    EXPECT_DEATH(inv.check(false, "boom"), "boom");
}

TEST(SimAssert, ToJson)
{
    SimAssert inv("test.inv", false);
    inv.check(true);
    inv.check(false, "bad");
    const Json j = inv.toJson();
    EXPECT_EQ(j.find("checks")->asInt(), 2);
    EXPECT_EQ(j.find("failures")->asInt(), 1);
    ASSERT_EQ(j.find("messages")->size(), 1u);
    EXPECT_EQ(j.find("messages")->at(0).asString(), "bad");
}

TEST(CounterRegistry, CountersAreStableReferences)
{
    CounterRegistry reg;
    std::uint64_t &a = reg.counter("a");
    for (int i = 0; i < 100; ++i)
        reg.counter(std::string("filler.") + std::to_string(i));
    a += 3;
    EXPECT_EQ(reg.counterValue("a"), 3u);
    EXPECT_EQ(&reg.counter("a"), &a);
    EXPECT_EQ(reg.counterValue("absent"), 0u);
}

TEST(CounterRegistry, GaugesAndInvariants)
{
    CounterRegistry reg;
    reg.gauge("g") = 2.5;
    EXPECT_DOUBLE_EQ(reg.gauge("g"), 2.5);

    reg.setFailFast(false);
    SimAssert &inv = reg.invariant("i");
    inv.check(false, "recorded");
    EXPECT_EQ(reg.totalInvariantChecks(), 1u);
    EXPECT_EQ(reg.totalInvariantFailures(), 1u);
    EXPECT_EQ(reg.findInvariant("i"), &inv);
    EXPECT_EQ(reg.findInvariant("missing"), nullptr);
    EXPECT_EQ(&reg.invariant("i"), &inv);
}

TEST(CounterRegistry, SetFailFastAppliesToLaterInvariants)
{
    CounterRegistry reg;
    reg.setFailFast(false);
    EXPECT_FALSE(reg.invariant("later").failFast());

    CounterRegistry strict;
    EXPECT_TRUE(strict.invariant("default").failFast());
}

TEST(CounterRegistry, ToJsonSortedAndComplete)
{
    CounterRegistry reg;
    reg.setFailFast(false);
    reg.counter("z.count") = 7;
    reg.counter("a.count") = 1;
    reg.gauge("util") = 0.5;
    reg.invariant("inv").check(true);

    const Json j = reg.toJson();
    const Json *counters = j.find("counters");
    ASSERT_NE(counters, nullptr);
    // std::map ordering: sorted by name.
    ASSERT_EQ(counters->items().size(), 2u);
    EXPECT_EQ(counters->items()[0].first, "a.count");
    EXPECT_EQ(counters->items()[1].first, "z.count");
    EXPECT_EQ(counters->find("z.count")->asInt(), 7);
    EXPECT_DOUBLE_EQ(j.find("gauges")->find("util")->asDouble(), 0.5);
    EXPECT_EQ(j.find("invariants")->find("inv")->find("checks")->asInt(),
              1);
}

namespace
{

/** DvsChannel + registry harness for the observability wiring. */
struct ObsHarness
{
    Kernel kernel;
    DvsLevelTable table = DvsLevelTable::standard10();
    Inbox<Flit> flitSink;
    Inbox<VcId> creditSink;
    EnergyLedger ledger{1, 1.6};
    CounterRegistry registry;
    dvsnet::testutil::TestPackets packets;
    DvsChannel channel;

    explicit ObsHarness(DvsLinkParams params = {})
        : channel(kernel, 0, table, params, &ledger)
    {
        channel.connectFlitSink(&flitSink);
        channel.connectCreditSink(&creditSink);
        channel.attachObservability(&registry);
    }
};

} // namespace

TEST(DvsObservability, CountsSendsAndSteps)
{
    ObsHarness h;
    const Flit f = h.packets.single();
    h.channel.send(f, 0);
    h.channel.send(f, 2000);
    EXPECT_EQ(h.registry.counterValue("link.flits_sent"), 2u);

    // One accepted slow-down step, completed after lock + ramp.
    ASSERT_TRUE(h.channel.requestStep(/*faster=*/false, 3000));
    EXPECT_EQ(h.registry.counterValue("dvs.steps_started"), 1u);
    // Rejected while transitioning.
    EXPECT_FALSE(h.channel.requestStep(false, 3000));
    EXPECT_EQ(h.registry.counterValue("dvs.steps_rejected"), 1u);

    h.kernel.run(3000 + 100 * h.table.level(1).period +
                 secondsToTicks(10e-6) + 1000);
    ASSERT_TRUE(h.channel.stable());
    EXPECT_EQ(h.registry.counterValue("dvs.steps_completed"), 1u);
}

TEST(DvsObservability, TransitionSequencingInvariantExercised)
{
    // Walk down two levels and back up one; every accepted step plus
    // each Stable->FreqLock->Stable / ramp edge runs adjacency and
    // ordering checks through `dvs.transition_sequencing`.
    ObsHarness h;
    for (bool faster : {false, false, true}) {
        ASSERT_TRUE(h.channel.requestStep(faster, h.kernel.now()));
        h.kernel.run(h.kernel.now() + secondsToTicks(10e-6) +
                     100 * 8000 + 1000);
        ASSERT_TRUE(h.channel.stable());
    }
    EXPECT_EQ(h.channel.level(), 1u);

    const dvsnet::SimAssert *inv =
        h.registry.findInvariant("dvs.transition_sequencing");
    ASSERT_NE(inv, nullptr);
    EXPECT_GT(inv->checks(), 0u);
    EXPECT_EQ(inv->failures(), 0u);
}

TEST(DvsObservability, DetachStopsCounting)
{
    ObsHarness h;
    h.channel.attachObservability(nullptr);
    const Flit f = h.packets.single();
    h.channel.send(f, 0);
    EXPECT_EQ(h.registry.counterValue("link.flits_sent"), 0u);
}
