/** @file Kernel tests: time advancement, horizons, stop, relative delays. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.hpp"

using dvsnet::Tick;
using dvsnet::kTickNever;
using dvsnet::sim::Kernel;

TEST(Kernel, StartsAtZero)
{
    Kernel k;
    EXPECT_EQ(k.now(), Tick{0});
}

TEST(Kernel, RunAdvancesToEventTimes)
{
    Kernel k;
    Tick seen = 0;
    k.at(500, [&] { seen = k.now(); });
    k.run();
    EXPECT_EQ(seen, Tick{500});
    EXPECT_EQ(k.now(), Tick{500});
}

TEST(Kernel, AfterIsRelative)
{
    Kernel k;
    std::vector<Tick> times;
    k.at(100, [&] {
        k.after(50, [&] { times.push_back(k.now()); });
    });
    k.run();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_EQ(times[0], Tick{150});
}

TEST(Kernel, HorizonStopsBeforeLaterEvents)
{
    Kernel k;
    bool early = false, late = false;
    k.at(10, [&] { early = true; });
    k.at(100, [&] { late = true; });
    k.run(50);
    EXPECT_TRUE(early);
    EXPECT_FALSE(late);
    EXPECT_EQ(k.now(), Tick{50});
    EXPECT_EQ(k.pendingEvents(), 1u);
}

TEST(Kernel, ScheduleBelowNextEventAfterHorizonStop)
{
    // run(until) stops below the next pending event without moving the
    // queue's base tick to it, so an event scheduled between the horizon
    // and that event is legal and fires first.
    Kernel k;
    std::vector<int> order;
    k.at(10, [&order] { order.push_back(0); });
    k.at(1000, [&order] { order.push_back(2); });
    k.run(500);
    EXPECT_EQ(k.now(), Tick{500});
    k.at(k.now() + 1, [&order] { order.push_back(1); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(k.now(), Tick{1000});
}

TEST(Kernel, EventExactlyAtHorizonRuns)
{
    Kernel k;
    bool fired = false;
    k.at(50, [&] { fired = true; });
    k.run(50);
    EXPECT_TRUE(fired);
}

TEST(Kernel, ResumeAfterHorizon)
{
    Kernel k;
    bool late = false;
    k.at(100, [&] { late = true; });
    k.run(50);
    EXPECT_FALSE(late);
    k.run(150);
    EXPECT_TRUE(late);
}

TEST(Kernel, HorizonWithEmptyQueueAdvancesClock)
{
    Kernel k;
    k.run(1000);
    EXPECT_EQ(k.now(), Tick{1000});
}

TEST(Kernel, StopEndsRun)
{
    Kernel k;
    int fired = 0;
    k.at(10, [&] {
        ++fired;
        k.stop();
    });
    k.at(20, [&] { ++fired; });
    k.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.pendingEvents(), 1u);
}

TEST(Kernel, StopBeforeRunIsHonored)
{
    Kernel k;
    bool fired = false;
    k.at(10, [&] { fired = true; });
    k.stop();
    EXPECT_EQ(k.run(), Tick{0});  // pre-run stop: no events execute
    EXPECT_FALSE(fired);
    EXPECT_EQ(k.now(), Tick{0});
    EXPECT_EQ(k.pendingEvents(), 1u);

    // The stop was consumed: the next run proceeds normally.
    k.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(k.now(), Tick{10});
}

TEST(Kernel, StopDoesNotAdvanceClockToHorizon)
{
    Kernel k;
    k.at(10, [&] { k.stop(); });
    k.at(500, [] {});
    EXPECT_EQ(k.run(200), Tick{10});  // stopped at 10, not dragged to 200
    EXPECT_EQ(k.now(), Tick{10});
    EXPECT_EQ(k.pendingEvents(), 1u);
}

namespace
{

/** Self-rescheduling chain as a two-word functor (fits an InlineFn). */
struct RepeatingStep
{
    Kernel *kernel;
    int *ticks;

    void operator()() const
    {
        ++*ticks;
        kernel->after(10, RepeatingStep{kernel, ticks});
    }
};

} // namespace

TEST(Kernel, SelfReschedulingChainRespectsHorizon)
{
    Kernel k;
    int ticks = 0;
    k.at(10, RepeatingStep{&k, &ticks});
    k.run(100);
    EXPECT_EQ(ticks, 10);  // fired at 10, 20, ..., 100
}

TEST(KernelDeathTest, SchedulingInThePastPanics)
{
    Kernel k;
    k.at(100, [] {});
    k.run();
    EXPECT_DEATH(k.at(50, [] {}), "scheduling into the past");
}
