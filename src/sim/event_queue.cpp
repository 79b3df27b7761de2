#include "sim/event_queue.hpp"

namespace dvsnet::sim
{

Tick
EventQueue::executeNext()
{
    Event ev;
    const bool due = takeDue(kTickNever, ev);
    DVSNET_ASSERT(due, "executeNext on empty queue");
    ev.fn();
    return ev.when;
}

void
EventQueue::addChunk(Bucket &bucket)
{
    Chunk *chunk = free_;
    if (chunk != nullptr) {
        free_ = chunk->next;
    } else {
        chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
        chunk = chunks_.back().get();
    }
    chunk->next = nullptr;
    if (bucket.tail != nullptr) {
        bucket.tail->next = chunk;
    } else {
        bucket.head = chunk;
        bucket.headPos = 0;
    }
    bucket.tail = chunk;
    bucket.tailPos = 0;
}

void
EventQueue::advanceHead()
{
    Bucket &bucket = buckets_[0];
    if (bucket.head == bucket.tail) {
        bucket.headPos = bucket.tailPos = 0;
        return;
    }
    Chunk *spent = bucket.head;
    bucket.head = spent->next;
    bucket.headPos = 0;
    spent->next = free_;
    free_ = spent;
}

bool
EventQueue::refill(Tick until)
{
    if (occupied_ == 0)
        return false;
    Bucket &from = buckets_[lowestFiled()];
    if (from.min > until)
        return false;

    base_ = from.min;
    occupied_ &= occupied_ - 1;
    // The bucket keeps its last chunk, emptied, before the re-file
    // reads it: its events all go to lower buckets.
    Chunk *c = from.head;
    Chunk *const last = from.tail;
    const std::uint32_t lastEnd = from.tailPos;
    from = Bucket{last, last, 0, 0, kTickNever};
    // Only bucket 0 pops at its head, so a bucket k >= 1 starts at 0.
    for (;;) {
        const std::uint32_t end = c == last ? lastEnd : kChunkEvents;
        for (std::uint32_t i = 0; i < end; ++i)
            push(std::move(c->events[i]));
        if (c == last)
            return true;
        // Free the chunk only once it is read: a push may take one.
        Chunk *next = c->next;
        c->next = free_;
        free_ = c;
        c = next;
    }
}

} // namespace dvsnet::sim
