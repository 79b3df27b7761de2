/**
 * @file
 * Flits and packets.  Per Section 4.2, packets are fixed-length: a head
 * flit leading body flits, each 32 bits wide; the default packet length is
 * five flits.
 *
 * A flit carries only what changes hop by hop or flit by flit: its
 * arrival tick, its sequence number, its VC and a tail flag, plus the
 * 32-bit slot of its packet in the network's PacketTable.  Everything
 * the flits of one packet share (id, endpoints, length, creation tick,
 * ejection bookkeeping) lives once in that slot, so the buffers and
 * inboxes every router step touches hold 16-byte flits.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fatal.hpp"
#include "common/types.hpp"

namespace dvsnet::router
{

/** Unique packet identifier. */
using PacketId = std::uint64_t;

/** Index of a live packet in its network's PacketTable. */
using PacketSlot = std::uint32_t;

/** A flow-control unit. */
struct Flit
{
    Tick arrived = 0;        ///< arrival at current input buffer (for BA)
    PacketSlot slot = 0;     ///< owning packet's PacketTable slot
    std::uint16_t seq = 0;   ///< index within the packet (0 = head)
    std::uint8_t vc = 0;     ///< VC at the current router
    bool tail = false;       ///< last flit of its packet

    bool isHead() const { return seq == 0; }
    bool isTail() const { return tail; }
};

static_assert(sizeof(Flit) == 16, "Flit must stay 16 bytes");

/** A new packet, as the network enters it in its PacketTable. */
struct PacketDesc
{
    PacketId id = 0;
    NodeId src = kInvalidId;
    NodeId dst = kInvalidId;
    std::uint16_t length = 0;  ///< flits
    Tick created = 0;
};

/** One PacketTable slot: what the flits of one packet share. */
struct Packet
{
    PacketId id = 0;
    Tick created = 0;            ///< latency epoch
    std::uint64_t tag = 0;       ///< delivery echo: request tag
    NodeId src = kInvalidId;
    NodeId dst = kInvalidId;
    std::uint16_t length = 0;    ///< flits
    std::uint16_t nextSeq = 0;   ///< next flit the destination expects
    std::uint16_t requestedFlits = 0;  ///< delivery echo: request size
    std::uint8_t trafficClass = 0;     ///< delivery echo: request class
    bool inWindow = false;       ///< created inside the measurement window
    bool echo = false;           ///< report delivery to the network's hook
    bool live = false;           ///< slot holds a packet in flight
};

/**
 * The packets of one network that are in flight: created, with their
 * tail not yet ejected.  Slots come from a free list, so storage is the
 * peak number of packets in flight, not the number ever created; the
 * most recently released slot is reused first.  Ids must strictly
 * increase from one add() to the next — the network numbers packets in
 * creation order — which also rules out a duplicate id.  Reading or
 * releasing a slot that holds no packet panics: a stale slot on a flit
 * is a bug, never a lookup miss.
 */
class PacketTable
{
  public:
    /** Enter a packet; returns its slot.  Echo fields start cleared. */
    PacketSlot add(const PacketDesc &desc);

    /** Free `slot` for reuse (its tail has ejected). */
    void release(PacketSlot slot);

    /** True if `slot` holds a packet in flight. */
    bool
    live(PacketSlot slot) const
    {
        return slot < slots_.size() && slots_[slot].live;
    }

    Packet &
    at(PacketSlot slot)
    {
        DVSNET_ASSERT(live(slot), "packet table: slot ", slot,
                      " holds no packet");
        return slots_[slot];
    }

    const Packet &
    at(PacketSlot slot) const
    {
        DVSNET_ASSERT(live(slot), "packet table: slot ", slot,
                      " holds no packet");
        return slots_[slot];
    }

    /** Flit `seq` of the packet in `slot`, on VC `vc`. */
    Flit
    makeFlit(PacketSlot slot, std::uint16_t seq, VcId vc = 0) const
    {
        const Packet &pkt = at(slot);
        DVSNET_ASSERT(seq < pkt.length, "flit ", seq, " of a ",
                      pkt.length, "-flit packet");
        Flit flit;
        flit.slot = slot;
        flit.seq = seq;
        flit.vc = static_cast<std::uint8_t>(vc);
        flit.tail = seq + 1 == pkt.length;
        return flit;
    }

    /** Packets in flight. */
    std::size_t size() const { return slots_.size() - free_.size(); }

    /** Slots held, live or free (for storage-bound tests). */
    std::size_t capacity() const { return slots_.size(); }

    /** Call `fn(Packet &)` on every packet in flight. */
    template <typename Fn>
    void
    forEachLive(Fn &&fn)
    {
        for (auto &pkt : slots_) {
            if (pkt.live)
                fn(pkt);
        }
    }

  private:
    std::vector<Packet> slots_;
    std::vector<PacketSlot> free_;  ///< released slots, reused LIFO
    PacketId lastId_ = 0;           ///< id of the most recent add()
};

} // namespace dvsnet::router
