#include "sim/event_queue.hpp"

#include "common/fatal.hpp"

namespace dvsnet::sim
{

void
EventQueue::schedule(Tick when, EventFn fn)
{
    DVSNET_ASSERT(static_cast<bool>(fn), "scheduling a null event");

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    }
    heap_.push(Key{when, nextSeq_++, slot});
}

Tick
EventQueue::executeNext()
{
    DVSNET_ASSERT(!heap_.empty(), "executeNext on empty queue");
    const Key key = heap_.top();
    heap_.pop();

    // Move the callback out first: it may schedule, which can reuse the
    // slot or grow slots_.
    EventFn fn = std::move(slots_[key.slot]);
    freeSlots_.push_back(key.slot);
    ++executed_;
    fn();
    return key.when;
}

} // namespace dvsnet::sim
