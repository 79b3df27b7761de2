/**
 * @file
 * Separable allocators for virtual channels and the crossbar switch,
 * built from the round-robin arbiter in router/arbiter.hpp.  Each has
 * one `allocate`.  The switch allocator is fed the bitmasks the router
 * already keeps, the bidding VCs per input port; the VC allocator
 * keeps its own: the waiting requests (`request`) and the free
 * downstream VCs (`release`).
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/fatal.hpp"
#include "common/types.hpp"
#include "router/arbiter.hpp"
#include "router/limits.hpp"

namespace dvsnet::router
{

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
 * waiting for it.  An input VC receives at most one grant per
 * invocation.
 *
 * The allocator keeps both sides of the match itself.  `request` files
 * an input VC under every downstream VC its route allows, and a grant
 * takes it out of all of them; `release` frees a downstream VC, and a
 * grant takes it.  It also keeps the set of ports where a free VC meets
 * a waiting request, exactly: after a pass no such port is left, and
 * only a request or a release adds one.  So `allocate` visits only
 * those ports, and a cycle with nothing to grant costs one word test
 * (`anyReady`).
 */
class SeparableVcAllocator
{
  public:
    /**
     * Every downstream VC starts allocated (not free) until `release`d.
     *
     * @param numPorts output ports
     * @param numVcs VCs per port
     * @param numRequesters dense input-VC index space size
     */
    SeparableVcAllocator(PortId numPorts, std::int32_t numVcs,
                         std::int32_t numRequesters);

    /**
     * Start waiting: input VC `requester` (dense index port*numVcs+vc)
     * wants one of the downstream VCs in `vcMask` at `outPort`.  It
     * waits until a grant; it must not be waiting already.
     */
    void
    request(std::int32_t requester, PortId outPort, std::uint32_t vcMask)
    {
        DVSNET_ASSERT(requester >= 0 && requester < numRequesters_,
                      "requester index out of range");
        DVSNET_ASSERT(outPort >= 0 && outPort < numPorts_,
                      "output port out of range");
        DVSNET_ASSERT(vcMask != 0 && (vcMask & ~allVcs_) == 0,
                      "VC mask outside the port's VCs");
        auto &mask = requestMask_[static_cast<std::size_t>(requester)];
        DVSNET_ASSERT(mask == 0, "requester is already waiting");
        mask = vcMask;
        const auto base = static_cast<std::size_t>(outPort) *
                          static_cast<std::size_t>(numVcs_);
        for (std::uint32_t m = vcMask; m != 0; m &= m - 1) {
            resources_[base + static_cast<std::size_t>(std::countr_zero(m))]
                .waiting.set(requester);
        }
        auto &pv = ports_[static_cast<std::size_t>(outPort)];
        pv.wanted |= vcMask;
        if ((pv.wanted & pv.free) != 0)
            readyPorts_.set(outPort);
    }

    /**
     * The downstream VCs in `vcMask` at `port` are free: the port was
     * connected, or a tail left on one of them.
     */
    void
    release(PortId port, std::uint32_t vcMask)
    {
        DVSNET_ASSERT(port >= 0 && port < numPorts_ &&
                          (vcMask & ~allVcs_) == 0,
                      "released VC out of range");
        auto &pv = ports_[static_cast<std::size_t>(port)];
        pv.free |= vcMask;
        if ((pv.wanted & pv.free) != 0)
            readyPorts_.set(port);
    }

    /** Does a free VC meet a waiting request?  (Else allocate() grants
     *  nothing.) */
    bool anyReady() const { return readyPorts_.any(); }

    /** Free downstream VCs at `port` (bit v set = (port, v) free). */
    std::uint32_t
    freeVcs(PortId port) const
    {
        return ports_[static_cast<std::size_t>(port)].free;
    }

    /**
     * Allocate free downstream VCs to the waiting input VCs.  Free
     * resources are visited in ascending (port, vc) order, and each
     * picks among the input VCs still waiting for it.  Granted input
     * VCs stop waiting, and granted VCs stop being free.
     *
     * @return grants, at most one per requester and per (port, vc);
     *         the reference is to internal scratch, valid until the
     *         next allocate() call
     */
    const std::vector<VcGrant> &allocate();

  private:
    /** Downstream VC state of one output port. */
    struct PortVcs
    {
        std::uint32_t wanted = 0;  ///< VCs some input VC waits for
        std::uint32_t free = 0;    ///< VCs not allocated
    };

    /** One downstream (port, vc): its arbiter and its waiters. */
    struct Resource
    {
        explicit Resource(std::int32_t requesters) : arbiter(requesters) {}

        RoundRobinArbiter arbiter;
        InputVcSet waiting;  ///< input VCs waiting for this VC
    };

    PortId numPorts_;
    std::int32_t numVcs_;
    std::int32_t numRequesters_;
    std::uint32_t allVcs_;  ///< low numVcs bits
    PortSet readyPorts_;  ///< ports where wanted & free is not empty
    std::vector<PortVcs> ports_;               ///< per output port
    std::vector<Resource> resources_;          ///< per (port, vc)
    std::vector<std::uint32_t> requestMask_;   ///< per requester; 0 = idle
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
