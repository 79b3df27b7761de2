/**
 * @file
 * Event-queue tests: temporal ordering and same-tick FIFO determinism.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

using dvsnet::Tick;
using dvsnet::kTickNever;
using dvsnet::sim::EventQueue;

TEST(EventQueue, EmptyByDefault)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kTickNever);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ExecuteNextReturnsTick)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.executeNext(), Tick{42});
}

TEST(EventQueue, NextTickPeeks)
{
    EventQueue q;
    q.schedule(7, [] {});
    q.schedule(3, [] {});
    EXPECT_EQ(q.nextTick(), Tick{3});
    EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] {
        ++count;
        q.schedule(2, [&] { ++count; });
    });
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ExecutedCountAccumulates)
{
    EventQueue q;
    for (Tick t = 0; t < 5; ++t)
        q.schedule(t, [] {});
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(q.executedCount(), 5u);
}
