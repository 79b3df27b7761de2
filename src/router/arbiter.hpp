/**
 * @file
 * The round-robin arbiter the separable allocators are built from.
 */

#pragma once

#include <bit>
#include <cstdint>

#include "common/bitmask.hpp"
#include "common/fatal.hpp"

namespace dvsnet::router
{

/**
 * Rotating-priority arbiter over `n` requesters.  A request set is a
 * bitmask (bit i set = requester i wants the resource); the grant is
 * the first requester at or after the rotation pointer, wrapping to
 * the lowest one, and the pointer then moves past the winner (back to
 * 0 past the last requester).
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(std::int32_t n) : n_(n)
    {
        DVSNET_ASSERT(n > 0, "arbiter needs at least one input");
    }

    /**
     * Grant one of `requests` (bits below n only).  Requires n <= 64.
     * @return granted index, or -1 if no requests.
     */
    std::int32_t
    arbitrateMask(std::uint64_t requests)
    {
        DVSNET_ASSERT(n_ <= 64, "mask arbitration needs <= 64 inputs");
        if (requests == 0)
            return -1;
        const std::uint64_t fromNext =
            requests & (~std::uint64_t{0} << next_);
        const std::int32_t idx = std::countr_zero(
            fromNext != 0 ? fromNext : requests);
        advancePast(idx);
        return idx;
    }

    /**
     * Multi-word overload for requester spaces wider than 64 bits (the
     * VC allocator's dense input-VC sets).  Same scan, so the winner
     * and the rotation equal the one-word overload's whenever the
     * request set fits one word.
     */
    template <std::size_t N>
    std::int32_t
    arbitrateMask(const BitMask<N> &requests)
    {
        DVSNET_ASSERT(n_ <= static_cast<std::int32_t>(N),
                      "mask capacity below arbiter width");
        std::int32_t idx = requests.firstSetAtOrAfter(next_);
        if (idx < 0)
            idx = requests.firstSet();
        if (idx < 0)
            return -1;
        advancePast(idx);
        return idx;
    }

  private:
    /** Move the pointer past `idx`, back to 0 past the last input. */
    void
    advancePast(std::int32_t idx)
    {
        next_ = idx + 1 < n_ ? idx + 1 : 0;
    }

    std::int32_t n_;
    std::int32_t next_ = 0;
};

} // namespace dvsnet::router
