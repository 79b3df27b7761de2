/**
 * @file
 * Time-stamped FIFO inboxes connecting links to routers.
 *
 * A link computes the exact picosecond a flit (or credit) lands at the
 * downstream router and pushes it here at once, at send time; the
 * router drains everything with arrival time <= now at the start of its
 * cycle step and leaves later items for the step at or after their
 * arrival.  Because each inbox is fed by exactly one link and each
 * link's deliveries are monotone in time, a plain FIFO preserves
 * timestamp order: no per-flit events, and no event at all to deliver.
 */

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/fatal.hpp"
#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace dvsnet::router
{

/**
 * FIFO of (arrival tick, item) pairs with monotone arrival times.
 *
 * Stored as a power-of-two ring rather than a deque: the router's step
 * polls ready()/empty() every cycle, and a contiguous ring keeps those
 * polls to two adjacent loads and a pop to a masked increment.  The
 * ring starts empty, is allocated on the first push, and doubles when
 * a push finds it full, so its capacity is the next power of two at or
 * above the peak number of items in flight (minimum kMinSlots) — not
 * the traffic ever received.  Under sustained load an inbox always
 * holds a future-dated delivery and never fully drains; the ring wraps
 * instead of moving live items.
 */
template <typename T>
class Inbox
{
  public:
    /**
     * Push an item arriving at `when` (must be >= the previous push).
     *
     * The wake hook fires only on an empty->non-empty transition: a
     * non-empty inbox's earliest arrival is already known to its owner
     * (its pending bit is set until a drain empties the queue), and a
     * later push cannot make that arrival earlier.
     */
    void
    push(Tick when, const T &item)
    {
        DVSNET_ASSERT(empty() || when >= back().when,
                      "inbox arrival times must be monotone");
        const bool wasEmpty = empty();
        if (size_ == ring_.size())
            grow();
        ring_[(head_ + size_) & mask_] = Slot{when, item};
        ++size_;
        if (wasEmpty && wake_)
            wake_();
    }

    /**
     * Install a hook invoked when a push finds the inbox empty.  The
     * owning router uses it to mark the port pending and to tell the
     * network when it is next due (Router::setWakeHook).
     */
    void setWakeHook(InlineFn hook) { wake_ = std::move(hook); }

    /** True if an item has arrived by `now`. */
    bool
    ready(Tick now) const
    {
        return !empty() && ring_[head_].when <= now;
    }

    /** Pop the earliest item (precondition: ready(now)). */
    T
    pop(Tick now)
    {
        DVSNET_ASSERT(ready(now), "inbox pop with nothing ready");
        const T item = ring_[head_].item;
        head_ = (head_ + 1) & mask_;
        --size_;
        return item;
    }

    /** Items in flight (arrived or not). */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Slots held (the ring's capacity; for storage-bound tests). */
    std::size_t storageSize() const { return ring_.size(); }

    /** Arrival tick of the earliest item; kTickNever if empty. */
    Tick
    nextArrival() const
    {
        return empty() ? kTickNever : ring_[head_].when;
    }

  private:
    /** One queued delivery: arrival tick + payload. */
    struct Slot
    {
        Tick when;
        T item;
    };

    /** Smallest ring allocated (see the class comment). */
    static constexpr std::size_t kMinSlots = 8;

    const Slot &back() const { return ring_[(head_ + size_ - 1) & mask_]; }

    /** Re-home the live items at offset zero of a ring twice the size
     *  (kMinSlots on the first push). */
    void
    grow()
    {
        const std::size_t capacity =
            ring_.empty() ? kMinSlots : 2 * ring_.size();
        std::vector<Slot> ring(capacity);
        for (std::size_t i = 0; i < size_; ++i)
            ring[i] = ring_[(head_ + i) & mask_];
        ring_ = std::move(ring);
        head_ = 0;
        mask_ = capacity - 1;
    }

    std::vector<Slot> ring_;  ///< power-of-two ring; empty until a push
    std::size_t head_ = 0;    ///< index of the earliest item
    std::size_t size_ = 0;    ///< items in flight
    std::size_t mask_ = 0;    ///< ring_.size() - 1 once allocated
    InlineFn wake_;  ///< optional empty->non-empty push notification
};

} // namespace dvsnet::router
