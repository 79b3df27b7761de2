/**
 * @file
 * Discrete-event queue with picosecond resolution.
 *
 * Events execute in strict (tick, insertion sequence) order, so events
 * scheduled for the same tick run in insertion (FIFO) order — a
 * determinism guarantee the rest of the simulator relies on (e.g. a
 * router's cycle step always observes link deliveries scheduled earlier
 * at the same tick).
 *
 * One binary min-heap of 24-byte (tick, sequence, slot) keys holds every
 * pending event.  Callbacks are heap-free InlineFn callables living in
 * recycled side slots, so sifts move only keys.  Memory is bounded by
 * the number of pending events.  A scheduled event always fires: the
 * simulator never retracts one, so the queue has no cancellation.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace dvsnet::sim
{

/**
 * Callback type executed when an event fires.  Heap-free: captures are
 * limited to two words (a `this` pointer plus one packed word) and
 * overflow is a compile error — see common/inline_fn.hpp.
 */
using EventFn = InlineFn;

/** Event queue keyed by (tick, insertion sequence). */
class EventQueue
{
  public:
    /** Schedule `fn` at absolute tick `when`. */
    void schedule(Tick when, EventFn fn);

    /** True if no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event; kTickNever if empty. */
    Tick nextTick() const
    {
        return heap_.empty() ? kTickNever : heap_.top().when;
    }

    /**
     * Pop and execute the earliest event.  Returns its tick.
     * Precondition: !empty().
     */
    Tick executeNext();

    /** Total events ever executed (for micro-benchmarks/diagnostics). */
    std::uint64_t executedCount() const { return executed_; }

  private:
    struct Key
    {
        Tick when;
        std::uint64_t seq;   ///< FIFO tiebreaker for same-tick events
        std::uint32_t slot;  ///< index into slots_

        bool operator>(const Key &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
    std::vector<EventFn> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace dvsnet::sim
