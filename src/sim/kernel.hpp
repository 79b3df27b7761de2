/**
 * @file
 * Simulation kernel: owns the event queue and the global clock (`now`).
 *
 * The kernel is deliberately minimal — components schedule callbacks and
 * read the current time.  Router-clock arithmetic lives in
 * common/types.hpp (cyclesToTicks, routerEdgeAfter); the network's
 * synchronous router step is just a self-rescheduling event.
 */

#pragma once

#include <cstdint>

#include "common/fatal.hpp"
#include "sim/event_queue.hpp"

namespace dvsnet::sim
{

/** Owns simulated time and drives the event queue. */
class Kernel
{
  public:
    Kernel() = default;
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule at an absolute tick (must be >= now). */
    void
    at(Tick when, EventFn fn)
    {
        DVSNET_ASSERT(when >= now_, "scheduling into the past: when=", when,
                      " now=", now_);
        queue_.schedule(when, std::move(fn));
    }

    /** Schedule after a relative delay. */
    void
    after(Tick delay, EventFn fn)
    {
        queue_.schedule(now_ + delay, std::move(fn));
    }

    /**
     * Run until the queue drains, simulated time would exceed `until`,
     * or a stop() request is observed.  Events exactly at `until` still
     * execute.  Returns the final time (== `until` if the horizon was
     * hit; the clock does NOT advance to the horizon on a stop).
     */
    Tick run(Tick until = kTickNever);

    /**
     * Request that run() return after the current event completes.  A
     * request made while no run() is active is remembered: the next
     * run() consumes it and returns immediately at the current time
     * without executing any events.  Each stop() is consumed by exactly
     * one run().
     */
    void stop() { stopRequested_ = true; }

    /** Number of pending events. */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** Total events executed since construction. */
    std::uint64_t executedEvents() const { return queue_.executedCount(); }

  private:
    EventQueue queue_;
    Tick now_ = 0;
    bool stopRequested_ = false;
};

} // namespace dvsnet::sim
