/**
 * @file
 * Switch-allocator bids for suites that drive SeparableSwitchAllocator
 * directly: a list of (input port, VC, output port) bids, turned into
 * the per-port VC masks and dense output-port array the allocator
 * takes, the form a router's SA stage fills.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "router/allocator.hpp"
#include "router/limits.hpp"

namespace dvsnet::testutil
{

/** Input VC (inPort, inVc) bids for output port outPort. */
struct SwitchBid
{
    PortId inPort;
    VcId inVc;
    PortId outPort;
};

/**
 * Run `sa` (geometry numPorts x numVcs) on `bids`.  A repeated
 * (inPort, inVc) keeps its first output port; ports with no bid leave
 * kInvalidId in the output-port array, which the allocator must never
 * read.
 */
inline const std::vector<router::SwitchGrant> &
allocateBids(router::SeparableSwitchAllocator &sa, PortId numPorts,
             std::int32_t numVcs, const std::vector<SwitchBid> &bids)
{
    std::vector<std::uint32_t> vcReqMasks(
        static_cast<std::size_t>(numPorts), 0);
    std::vector<PortId> outPorts(static_cast<std::size_t>(numPorts) *
                                     static_cast<std::size_t>(numVcs),
                                 kInvalidId);
    router::PortSet reqPorts;
    for (const auto &b : bids) {
        auto &mask = vcReqMasks[static_cast<std::size_t>(b.inPort)];
        if ((mask & (1u << b.inVc)) == 0) {
            mask |= 1u << b.inVc;
            outPorts[static_cast<std::size_t>(b.inPort * numVcs +
                                              b.inVc)] = b.outPort;
        }
        reqPorts.set(b.inPort);
    }
    return sa.allocate(vcReqMasks, outPorts, reqPorts);
}

} // namespace dvsnet::testutil
