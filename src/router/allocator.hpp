/**
 * @file
 * Separable allocators for virtual channels and the crossbar switch,
 * built from the round-robin arbiter in router/arbiter.hpp.  Each has
 * one `allocate`, fed with the bitmasks the router already keeps: the
 * free downstream VCs per output port, or the bidding VCs per input
 * port.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "router/arbiter.hpp"
#include "router/limits.hpp"

namespace dvsnet::router
{

/** Request from an input VC for a downstream virtual channel. */
struct VcRequest
{
    std::int32_t requester;    ///< dense input-VC index (port*numVcs + vc)
    PortId outPort;            ///< desired output port
    std::uint32_t vcMask;      ///< acceptable downstream VCs (bitmask)
};

/** A granted downstream VC. */
struct VcGrant
{
    std::int32_t requester;
    PortId outPort;
    VcId outVc;
};

/**
 * Output-side separable VC allocator: one arbiter per downstream
 * (port, vc) resource; each free resource picks among the input VCs
 * requesting it.  An input VC receives at most one grant per invocation.
 */
class SeparableVcAllocator
{
  public:
    /**
     * @param numPorts output ports
     * @param numVcs VCs per port
     * @param numRequesters dense input-VC index space size
     */
    SeparableVcAllocator(PortId numPorts, std::int32_t numVcs,
                         std::int32_t numRequesters);

    /**
     * Allocate downstream VCs.
     *
     * @param requests    one entry per input VC wanting a downstream VC
     * @param freeVcMasks one mask per output port; bit v set =
     *                    downstream (port, v) unallocated
     * @return grants, at most one per requester and per (port, vc);
     *         the reference is to internal scratch, valid until the
     *         next allocate() call
     */
    const std::vector<VcGrant> &
    allocate(const std::vector<VcRequest> &requests,
             const std::vector<std::uint32_t> &freeVcMasks);

  private:
    PortId numPorts_;
    std::int32_t numVcs_;
    std::int32_t numRequesters_;
    std::vector<RoundRobinArbiter> arbiters_;  ///< per (port, vc)
    std::vector<VcGrant> grants_;              ///< scratch (returned)
};

/** A granted crossbar traversal. */
struct SwitchGrant
{
    PortId inPort;
    VcId inVc;
    PortId outPort;
};

/**
 * Input-first separable switch allocator: stage 1 picks one VC per input
 * port (round-robin over its requesting VCs), stage 2 picks one input
 * port per output port among the stage-1 winners.
 */
class SeparableSwitchAllocator
{
  public:
    SeparableSwitchAllocator(PortId numPorts, std::int32_t numVcs);

    /**
     * Allocate crossbar slots; at most one grant per input and output.
     * `vcReqMasks[p]` is the bitmask of requesting VCs at input port p,
     * `outPorts[p*numVcs+v]` the requested output port per dense input
     * VC (read only where the corresponding bit is set), and `reqPorts`
     * the set of input ports with any request (entries of `vcReqMasks`
     * outside it may be stale and are never read).  Each set (port, vc)
     * bit is exactly one request.  The reference is to internal
     * scratch, valid until the next call.
     */
    const std::vector<SwitchGrant> &
    allocate(const std::vector<std::uint32_t> &vcReqMasks,
             const std::vector<PortId> &outPorts, const PortSet &reqPorts);

  private:
    PortId numPorts_;
    std::int32_t numVcs_;
    std::vector<RoundRobinArbiter> inputStage_;   ///< per input port
    std::vector<RoundRobinArbiter> outputStage_;  ///< per output port

    // Scratch reused across invocations (hot path, no allocation).
    std::vector<std::int32_t> stageOne_;          ///< winning VC per port
    std::vector<PortSet> outContenders_;          ///< stage-2 input sets
    std::vector<SwitchGrant> grants_;             ///< returned
};

} // namespace dvsnet::router
