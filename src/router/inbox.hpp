/**
 * @file
 * Time-stamped FIFO inboxes connecting links to routers.
 *
 * A link computes the exact picosecond a flit (or credit) lands at the
 * downstream router and pushes it here; the router drains everything with
 * arrival time <= now at the start of its cycle step.  Because each inbox
 * is fed by exactly one link and each link's deliveries are monotone in
 * time, a plain FIFO preserves timestamp order — no per-flit events needed.
 */

#pragma once

#include <algorithm>
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
    /** One queued delivery: arrival tick + payload. */
    struct Slot
    {
        Tick when;
        T item;
    };

    /**
     * Push an item arriving at `when` (must be >= the previous push).
     *
     * The wake hook fires only on an empty->non-empty transition: while
     * the inbox is non-empty the owner's pending bit is already set (it
     * is cleared only when a drain empties the queue), so the owner is
     * guaranteed awake and a repeat wake would be a no-op.
     */
    void
    push(Tick when, const T &item)
    {
        DVSNET_ASSERT(empty() || when >= back().when,
                      "inbox arrival times must be monotone");
        const bool wasEmpty = empty();
        if (size_ == ring_.size())
            grow(size_ + 1);
        ring_[(head_ + size_) & mask_] = Slot{when, item};
        ++size_;
        if (wasEmpty && wake_)
            wake_();
    }

    /**
     * Append a pre-ordered batch of deliveries with ONE wake at the end.
     *
     * This is the link-batching fast path: a DvsChannel accumulates a
     * contiguous burst of flits (or credits) and hands the whole thing
     * over in a single call, so the wake-hook chain (inbox -> router ->
     * network active set) runs once per burst instead of once per flit.
     * The batch must be internally monotone (the channel serializes, so
     * it is by construction); only the splice boundary is re-checked.
     */
    void
    pushBatch(const std::vector<Slot> &batch)
    {
        if (batch.empty())
            return;
        DVSNET_ASSERT(empty() || batch.front().when >= back().when,
                      "inbox batch arrival times must be monotone");
        const bool wasEmpty = empty();
        if (size_ + batch.size() > ring_.size())
            grow(size_ + batch.size());
        for (const Slot &slot : batch)
            ring_[(head_ + size_++) & mask_] = slot;
        if (wasEmpty && wake_)
            wake_();
    }

    /**
     * Install a hook invoked on every push.  The network uses this to
     * wake the owning router out of the idle-skip set when a delivery
     * (flit, credit, or injected packet) lands here.
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
        lastPopTick_ = now;
        const T item = ring_[head_].item;
        head_ = (head_ + 1) & mask_;
        --size_;
        return item;
    }

    /**
     * True if the owning router is provably awake at `now`: either the
     * inbox still holds items (so the owner's pending-port bit is set),
     * or the owner popped from this inbox this very tick (it is
     * mid-step, or stepped earlier in the same cycle).
     *
     * Link batching consults this — not raw empty() — when deciding
     * between a direct push and a deferred splice event.  The same-tick
     * pop clause matters when the owner has a lower id than the sender:
     * it stepped earlier this cycle and drained the inbox, so the inbox
     * reads empty although its owner was just awake.  A direct push
     * then saves the splice event; if the drain left the owner idle,
     * the push wakes it a few cycles early instead.  Without the clause
     * every benchmark workload runs more kernel events, and wall time
     * is unchanged within noise (EXPERIMENTS.md, "Inbox same-tick-pop
     * clause").
     */
    bool
    ownerAwakeAt(Tick now) const
    {
        return !empty() || lastPopTick_ == now;
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
    /** Smallest ring allocated (see the class comment). */
    static constexpr std::size_t kMinSlots = 8;

    const Slot &back() const { return ring_[(head_ + size_ - 1) & mask_]; }

    /** Re-home the live items at offset zero of a ring of at least
     *  `needed` slots (a power of two, at least kMinSlots). */
    void
    grow(std::size_t needed)
    {
        std::size_t capacity = std::max(kMinSlots, ring_.size());
        while (capacity < needed)
            capacity *= 2;
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
    Tick lastPopTick_ = kTickNever;  ///< tick of the most recent pop
    InlineFn wake_;  ///< optional push notification (activity gating)
};

} // namespace dvsnet::router
