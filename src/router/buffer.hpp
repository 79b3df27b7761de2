/**
 * @file
 * Virtual-channel input buffers (Dally, "Virtual channel flow control").
 *
 * Each input port is statically partitioned into `numVcs` FIFO buffers.
 * A VC moves through the classic state machine:
 *
 *   Idle -> Routing -> VcAlloc -> Active -> (tail departs) -> Idle
 *
 * The state machine itself (VcState plus the route target, granted
 * downstream VC and allowed-VC mask) lives in the Router's
 * structure-of-arrays slabs indexed by the dense vcIndex(port, vc) —
 * see DESIGN.md "Wide-geometry fast path" — so VirtualChannel here is a
 * pure flit FIFO.
 *
 * Section 4.2: 128 flit buffers per input port, two virtual channels.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/fatal.hpp"
#include "router/flit.hpp"

namespace dvsnet::router
{

/** Lifecycle of a virtual channel at an input port. */
enum class VcState : std::uint8_t
{
    Idle,     ///< no packet resident
    Routing,  ///< head flit buffered, route not yet computed
    VcAlloc,  ///< route known, waiting for a downstream VC grant
    Active,   ///< downstream VC held; flits may bid for the switch
};

/**
 * One virtual channel's flit FIFO.
 *
 * A ring over a flit array, which keeps the router's per-cycle scans on
 * contiguous memory (this sits on the simulator's hottest path).  Like
 * router::Inbox, the ring starts empty, is allocated on the first
 * enqueue and doubles when an enqueue finds it full, here up to the
 * VC's capacity.  So its storage is the next power of two at or above
 * the peak occupancy (minimum kMinSlots), never more than the capacity,
 * rather than the whole buffer depth: most VCs of a network below
 * saturation never hold more than a packet or two.
 */
class VirtualChannel
{
  public:
    explicit VirtualChannel(std::size_t capacity) : capacity_(capacity)
    {
        DVSNET_ASSERT(capacity > 0, "VC capacity must be positive");
    }

    /** Free slots remaining. */
    std::size_t freeSlots() const { return capacity_ - size_; }

    /** Occupied slots. */
    std::size_t occupancy() const { return size_; }

    /** Capacity in flits. */
    std::size_t capacity() const { return capacity_; }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** Slots held (the ring's size; for storage-bound tests). */
    std::size_t storageSize() const { return slots_.size(); }

    /** Enqueue an arriving flit (must not be full). */
    void
    enqueue(const Flit &flit)
    {
        DVSNET_ASSERT(!full(), "enqueue into full VC (credit bug)");
        if (size_ == slots_.size())
            grow();
        std::size_t idx = head_ + size_;
        if (idx >= slots_.size())
            idx -= slots_.size();
        slots_[idx] = flit;
        ++size_;
    }

    /** Flit at the head (must not be empty). */
    const Flit &
    front() const
    {
        DVSNET_ASSERT(!empty(), "front of empty VC");
        return slots_[head_];
    }

    /** Dequeue the head flit. */
    Flit
    dequeue()
    {
        DVSNET_ASSERT(!empty(), "dequeue from empty VC");
        Flit f = slots_[head_];
        if (++head_ == slots_.size())
            head_ = 0;
        --size_;
        return f;
    }

  private:
    /** Smallest ring allocated, unless the capacity is smaller. */
    static constexpr std::size_t kMinSlots = 8;

    /** Re-home the flits at offset zero of a ring twice as large (at
     *  least kMinSlots, at most capacity_). */
    void
    grow()
    {
        const std::size_t old = slots_.size();
        std::vector<Flit> ring(
            std::min(capacity_, std::max(kMinSlots, 2 * old)));
        for (std::size_t i = 0, idx = head_; i < size_; ++i) {
            ring[i] = slots_[idx];
            if (++idx == old)
                idx = 0;
        }
        slots_ = std::move(ring);
        head_ = 0;
    }

    std::vector<Flit> slots_;  ///< ring storage; empty until an enqueue
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** All virtual channels of one input port. */
class InputBuffer
{
  public:
    /**
     * @param numVcs virtual channels at this port
     * @param flitsPerPort total buffer depth, split evenly across VCs
     */
    InputBuffer(std::int32_t numVcs, std::size_t flitsPerPort)
    {
        DVSNET_ASSERT(numVcs > 0, "need at least one VC");
        DVSNET_ASSERT(flitsPerPort >= static_cast<std::size_t>(numVcs),
                      "fewer buffer slots than VCs");
        const std::size_t per = flitsPerPort / static_cast<std::size_t>(numVcs);
        vcs_.reserve(static_cast<std::size_t>(numVcs));
        for (std::int32_t v = 0; v < numVcs; ++v)
            vcs_.emplace_back(per);
    }

    std::int32_t numVcs() const
    {
        return static_cast<std::int32_t>(vcs_.size());
    }

    // Unchecked: every caller's VcId comes off a flit or grant that has
    // already been range-asserted, and this accessor is in the router's
    // per-cycle scan loops.
    VirtualChannel &vc(VcId v) { return vcs_[static_cast<std::size_t>(v)]; }
    const VirtualChannel &vc(VcId v) const
    {
        return vcs_[static_cast<std::size_t>(v)];
    }

    /** Flits buffered across all VCs. */
    std::size_t
    totalOccupancy() const
    {
        std::size_t n = 0;
        for (const auto &v : vcs_)
            n += v.occupancy();
        return n;
    }

  private:
    std::vector<VirtualChannel> vcs_;
};

} // namespace dvsnet::router
