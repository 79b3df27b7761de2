/**
 * @file
 * Discrete-event queue with picosecond resolution.
 *
 * Events execute in strict tick order, and events scheduled for the same
 * tick run in insertion (FIFO) order — a determinism guarantee the rest
 * of the simulator relies on (e.g. a router's cycle step always observes
 * link deliveries scheduled earlier at the same tick).
 *
 * The queue is a monotone radix queue keyed by tick.  The *base tick* is
 * the tick of the last executed event (0 before the first), and no event
 * may be scheduled before it.  Bucket 0 holds the events at the base
 * tick, in FIFO order.  Bucket k >= 1 holds the events whose tick first
 * differs from the base tick, reading from bit 63 down, in bit k-1: such
 * a tick has bit k-1 set where the base has it clear, so every tick in
 * bucket k is below every tick in bucket k+1.  A 64-bit occupancy word
 * finds the lowest non-empty bucket k >= 1, and each bucket keeps the
 * least tick pushed into it.  When bucket 0 runs dry, that bucket's
 * least tick becomes the base tick, and the bucket's events are
 * re-filed, in order, into lower buckets (each of them now agrees with
 * the base tick down to bit k-1).  The buckets above k keep their
 * events: the new base agrees with the old one above bit k-1.  Each
 * re-file moves an event to a lower bucket, so an event moves at most 64
 * times, and in practice a few.
 *
 * Same-tick FIFO without a sequence number: an event's bucket is a
 * function of its tick and the base tick alone, so events with equal
 * ticks always sit in the same bucket.  A bucket appends at its tail,
 * and a re-file empties one bucket front to back into buckets that are
 * empty when it starts (they lie below the lowest non-empty bucket, and
 * bucket 0 is dry).  Every move thus keeps the order of equal ticks, and
 * bucket 0 hands them out in insertion order.
 *
 * Only executing an event moves the base tick: nextTick() reads without
 * moving it, and takeDue() re-files only for an event it hands out.  A
 * kernel stopped at a horizon below the next event may therefore still
 * schedule between the horizon and that event.
 *
 * Storage: an entry is the tick plus its InlineFn callback (32 bytes),
 * stored in place.  Buckets are FIFO lists of fixed ~2 KiB chunks drawn
 * from one free list per queue.  A bucket keeps its last chunk when it
 * empties, so a bucket that fills and drains by turns takes no chunk
 * from the list.  Only bucket 0 pops at its head, and a re-file reads
 * its bucket whole while bucket 0 is empty, so at most one bucket has a
 * partly read head chunk.  The non-empty buckets then use at most
 * ceil(pending / kChunkEvents) - 1 chunks beyond one each, plus that
 * partly read one, and each empty bucket keeps at most one: at most
 * ceil(pending / kChunkEvents) + kBuckets chunks in all.  A chunk is
 * allocated only when the free list is empty, so the chunks kept are at
 * most ceil(peak pending / kChunkEvents) + kBuckets.  A scheduled event
 * always fires: the simulator never retracts one, so the queue has no
 * cancellation.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fatal.hpp"
#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace dvsnet::sim
{

/**
 * Callback type executed when an event fires.  Heap-free: captures are
 * limited to two trivially copyable words (a `this` pointer plus one
 * packed word) and anything else is a compile error — see
 * common/inline_fn.hpp.
 */
using EventFn = InlineFn;

/** Monotone radix queue of events, FIFO among equal ticks. */
class EventQueue
{
  public:
    /** One pending event: its tick and its callback, held in place. */
    struct Event
    {
        Tick when;
        EventFn fn;
    };

    /** Events per storage chunk (a chunk is ~2 KiB). */
    static constexpr std::uint32_t kChunkEvents = 63;

    /** Number of buckets: the base tick's plus one per tick bit. */
    static constexpr unsigned kBuckets = 65;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule `fn` at absolute tick `when` (at or after baseTick()). */
    void
    schedule(Tick when, EventFn fn)
    {
        DVSNET_ASSERT(static_cast<bool>(fn), "scheduling a null event");
        DVSNET_ASSERT(when >= base_, "scheduling before the base tick: when=",
                      when, " base=", base_);
        push(Event{when, std::move(fn)});
        ++size_;
    }

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Tick of the last executed event (0 before the first). */
    Tick baseTick() const { return base_; }

    /** Tick of the earliest pending event; kTickNever if empty. */
    Tick
    nextTick() const
    {
        if (!isEmpty(buckets_[0]))
            return base_;
        return occupied_ == 0 ? kTickNever : buckets_[lowestFiled()].min;
    }

    /**
     * Remove the earliest event into `out` if its tick is at most
     * `until`, making its tick the base tick.  Returns false, and
     * changes nothing, if no event is due by `until`.
     */
    bool
    takeDue(Tick until, Event &out)
    {
        if (isEmpty(buckets_[0]) && !refill(until))
            return false;
        popFront(out);
        return true;
    }

    /**
     * Pop and execute the earliest event.  Returns its tick.
     * Precondition: !empty().
     */
    Tick executeNext();

    /** Total events ever executed (for micro-benchmarks/diagnostics). */
    std::uint64_t executedCount() const { return executed_; }

    /** Chunks held, in use or free (for storage-bound tests). */
    std::size_t storageChunks() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        Chunk *next;
        Event events[kChunkEvents];
    };

    /**
     * FIFO list of chunks.  Events run from `headPos` in `head` to
     * `tailPos` in `tail`.  An empty bucket has head == tail and
     * headPos == tailPos: both 0 in the chunk it kept, or both full with
     * no chunk before its first push, so that push takes one.
     */
    struct Bucket
    {
        Chunk *head = nullptr;
        Chunk *tail = nullptr;
        std::uint32_t headPos = kChunkEvents;
        std::uint32_t tailPos = kChunkEvents;
        /** Least tick pushed since it was last empty; only buckets
         *  k >= 1 read it (bucket 0's events are at the base tick). */
        Tick min = kTickNever;
    };

    static bool
    isEmpty(const Bucket &bucket)
    {
        return bucket.headPos == bucket.tailPos && bucket.head == bucket.tail;
    }

    /** Index of the lowest non-empty bucket k >= 1 (occupied_ != 0). */
    unsigned
    lowestFiled() const
    {
        return 1 + static_cast<unsigned>(std::countr_zero(occupied_));
    }

    /** File `ev` at its bucket's tail: 0 at the base tick, else 1 + the
     *  top bit its tick differs from the base tick in. */
    void
    push(Event &&ev)
    {
        const Tick diff = ev.when ^ base_;
        Bucket &bucket = buckets_[std::bit_width(diff)];
        occupied_ |= std::bit_floor(diff);  // bit k-1 for bucket k >= 1
        if (bucket.tailPos == kChunkEvents)
            addChunk(bucket);
        bucket.min = std::min(bucket.min, ev.when);
        bucket.tail->events[bucket.tailPos++] = std::move(ev);
    }

    /** Pop bucket 0's front into `out`.  Precondition: it is non-empty. */
    void
    popFront(Event &out)
    {
        Bucket &bucket = buckets_[0];
        out = std::move(bucket.head->events[bucket.headPos++]);
        --size_;
        ++executed_;
        if (bucket.headPos == (bucket.head == bucket.tail
                                   ? bucket.tailPos
                                   : kChunkEvents))
            advanceHead();
    }

    /** Append a chunk to `bucket`'s tail. */
    void addChunk(Bucket &bucket);

    /** Bucket 0's head chunk is read: free it, or keep it if it is the
     *  bucket's last. */
    void advanceHead();

    /**
     * Bucket 0 is dry: if the lowest non-empty bucket's least tick is
     * at most `until`, make it the base tick and re-file that bucket.
     */
    bool refill(Tick until);

    Bucket buckets_[kBuckets];
    std::uint64_t occupied_ = 0;  ///< bit k-1 set: bucket k non-empty
    Tick base_ = 0;
    std::size_t size_ = 0;
    std::uint64_t executed_ = 0;
    Chunk *free_ = nullptr;  ///< free chunks, linked through `next`
    std::vector<std::unique_ptr<Chunk>> chunks_;  ///< owns every chunk
};

} // namespace dvsnet::sim
