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
 * Stored as a flat vector with a drain cursor rather than a deque: the
 * router's step polls ready()/empty() every cycle, and a contiguous
 * buffer keeps those polls to two adjacent loads.  Storage is bounded
 * by the items in flight, not by the traffic ever received: the vector
 * resets to offset zero when it fully drains, and a pop erases the
 * consumed prefix once it is at least kCompactMinSlots long and at
 * least as long as the live part.  Under sustained load an inbox always
 * holds a future-dated delivery and never fully drains, so the erase is
 * what keeps it within about twice the peak in-flight count plus
 * kCompactMinSlots.  Each erase moves at most as many live slots as
 * were popped since the last one, so the cost stays amortized O(1) per
 * pop, and pushes reuse warm storage instead of growing the vector.
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
        DVSNET_ASSERT(queue_.empty() || when >= queue_.back().when,
                      "inbox arrival times must be monotone");
        const bool wasEmpty = empty();
        queue_.push_back(Slot{when, item});
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
        DVSNET_ASSERT(queue_.empty() ||
                          batch.front().when >= queue_.back().when,
                      "inbox batch arrival times must be monotone");
        const bool wasEmpty = empty();
        queue_.insert(queue_.end(), batch.begin(), batch.end());
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
        return head_ < queue_.size() && queue_[head_].when <= now;
    }

    /** Pop the earliest item (precondition: ready(now)). */
    T
    pop(Tick now)
    {
        DVSNET_ASSERT(ready(now), "inbox pop with nothing ready");
        lastPopTick_ = now;
        T item = queue_[head_].item;
        if (++head_ == queue_.size()) {
            queue_.clear();
            head_ = 0;
        } else if (head_ >= kCompactMinSlots && head_ >= size()) {
            queue_.erase(queue_.begin(),
                         queue_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
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
    std::size_t size() const { return queue_.size() - head_; }

    bool empty() const { return head_ == queue_.size(); }

    /** Slots held, consumed or not (>= size(); for storage-bound tests). */
    std::size_t storageSize() const { return queue_.size(); }

    /** Arrival tick of the earliest item; kTickNever if empty. */
    Tick
    nextArrival() const
    {
        return empty() ? kTickNever : queue_[head_].when;
    }

  private:
    /** Shortest consumed prefix a pop erases (see the class comment). */
    static constexpr std::size_t kCompactMinSlots = 64;

    std::vector<Slot> queue_;  ///< [head_, size) = pending items
    std::size_t head_ = 0;     ///< drain cursor, reset on drain or erase
    Tick lastPopTick_ = kTickNever;  ///< tick of the most recent pop
    InlineFn wake_;  ///< optional push notification (activity gating)
};

} // namespace dvsnet::router
