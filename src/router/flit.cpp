#include "router/flit.hpp"

#include <limits>

namespace dvsnet::router
{

PacketSlot
PacketTable::add(const PacketDesc &desc)
{
    DVSNET_ASSERT(desc.id > lastId_, "duplicate or out-of-order packet id ",
                  desc.id, " (previous ", lastId_, ")");
    DVSNET_ASSERT(desc.length > 0, "packet ", desc.id, " has no flits");
    lastId_ = desc.id;

    PacketSlot slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        DVSNET_ASSERT(slots_.size() <
                          std::numeric_limits<PacketSlot>::max(),
                      "packet table full");
        slot = static_cast<PacketSlot>(slots_.size());
        slots_.emplace_back();
    }
    Packet &pkt = slots_[slot];
    pkt = Packet{};
    pkt.id = desc.id;
    pkt.created = desc.created;
    pkt.src = desc.src;
    pkt.dst = desc.dst;
    pkt.length = desc.length;
    pkt.live = true;
    return slot;
}

void
PacketTable::release(PacketSlot slot)
{
    DVSNET_ASSERT(live(slot), "packet table: release of slot ", slot,
                  " which holds no packet");
    slots_[slot].live = false;
    free_.push_back(slot);
}

} // namespace dvsnet::router
