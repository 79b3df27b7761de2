#include "router/allocator.hpp"

#include <bit>

#include "common/fatal.hpp"

namespace dvsnet::router
{

SeparableVcAllocator::SeparableVcAllocator(PortId numPorts,
                                           std::int32_t numVcs,
                                           std::int32_t numRequesters)
    : numPorts_(numPorts), numVcs_(numVcs), numRequesters_(numRequesters)
{
    DVSNET_ASSERT(numPorts > 0 && numVcs > 0 && numRequesters > 0,
                  "invalid VC allocator geometry");
    // Capacity checks against the mask widths in router/limits.hpp.
    // User-facing geometry validation happens in RouterConfig::validate()
    // before any allocator is constructed; tripping these means a caller
    // bypassed it.
    DVSNET_ASSERT(numPorts <= kMaxPorts, "port set exceeds kMaxPorts");
    DVSNET_ASSERT(numVcs <= kMaxVcsPerPort,
                  "vcMask exceeds kMaxVcsPerPort bits");
    DVSNET_ASSERT(numRequesters <= kMaxInputVcs,
                  "requester set exceeds kMaxInputVcs");
    arbiters_.reserve(static_cast<std::size_t>(numPorts) *
                      static_cast<std::size_t>(numVcs));
    for (std::int32_t i = 0; i < numPorts * numVcs; ++i)
        arbiters_.emplace_back(numRequesters);
}

const std::vector<VcGrant> &
SeparableVcAllocator::allocate(
    const std::vector<VcRequest> &requests,
    const std::vector<std::uint32_t> &freeVcMasks)
{
    DVSNET_ASSERT(freeVcMasks.size() ==
                      static_cast<std::size_t>(numPorts_),
                  "one free-VC mask per output port");
    grants_.clear();
    if (requests.empty())
        return grants_;

    // Requester sets are InputVcSet words: one 64-bit word for classic
    // geometries, more only when numPorts * numVcs > 64.  Resources are
    // visited in ascending (port, vc) order; each free resource somebody
    // wants round-robins over its not-yet-granted requesters.
    InputVcSet granted;
    for (PortId port = 0; port < numPorts_; ++port) {
        // Union of VCs requested at this port — skips free resources
        // nobody wants without scanning the requests.
        std::uint32_t wanted = 0;
        for (const auto &req : requests) {
            if (req.outPort == port)
                wanted |= req.vcMask;
        }
        std::uint32_t effective =
            wanted & freeVcMasks[static_cast<std::size_t>(port)];
        while (effective != 0) {
            const VcId vc = std::countr_zero(effective);
            effective &= effective - 1;
            InputVcSet reqMask;
            for (const auto &req : requests) {
                DVSNET_ASSERT(req.requester >= 0 &&
                                  req.requester < numRequesters_,
                              "requester index out of range");
                if (req.outPort == port &&
                    (req.vcMask & (1u << vc)) != 0 &&
                    !granted.test(req.requester)) {
                    reqMask.set(req.requester);
                }
            }
            if (reqMask.none())
                continue;
            auto &arb =
                arbiters_[static_cast<std::size_t>(port) *
                              static_cast<std::size_t>(numVcs_) +
                          static_cast<std::size_t>(vc)];
            const std::int32_t winner = arb.arbitrateMask(reqMask);
            if (winner >= 0) {
                grants_.push_back({winner, port, vc});
                granted.set(winner);
            }
        }
    }
    return grants_;
}

SeparableSwitchAllocator::SeparableSwitchAllocator(PortId numPorts,
                                                   std::int32_t numVcs)
    : numPorts_(numPorts), numVcs_(numVcs)
{
    DVSNET_ASSERT(numPorts > 0 && numVcs > 0,
                  "invalid switch allocator geometry");
    // Capacity checks against router/limits.hpp mask widths; geometry
    // validation proper lives in RouterConfig::validate().
    DVSNET_ASSERT(numPorts <= kMaxPorts && numVcs <= kMaxVcsPerPort,
                  "switch allocator mask capacity exceeded");
    inputStage_.reserve(static_cast<std::size_t>(numPorts));
    outputStage_.reserve(static_cast<std::size_t>(numPorts));
    for (PortId p = 0; p < numPorts; ++p) {
        inputStage_.emplace_back(numVcs);
        outputStage_.emplace_back(numPorts);
    }
    stageOne_.assign(static_cast<std::size_t>(numPorts), -1);
    outContenders_.assign(static_cast<std::size_t>(numPorts), PortSet{});
}

const std::vector<SwitchGrant> &
SeparableSwitchAllocator::allocate(
    const std::vector<std::uint32_t> &vcReqMasks,
    const std::vector<PortId> &outPorts, const PortSet &reqPorts)
{
    grants_.clear();
    if (reqPorts.none())
        return grants_;

    // Stage 1: each requesting input port picks one of its VCs.
    // stageOne_[p] = the winning VC, or -1.  The stage-2 contender set
    // per output port is accumulated here (outContenders_ entries are
    // cleared lazily on an output's first contender this call), so
    // stage 2 never rescans the input ports.  Ports outside reqPorts
    // are never read below, so stale scratch entries are harmless.
    PortSet outRequested;  // output ports with any contender
    reqPorts.forEachSetBit([&](std::int32_t p) {
        const std::uint32_t mask =
            vcReqMasks[static_cast<std::size_t>(p)];
        DVSNET_ASSERT(mask != 0, "requesting port without VC bits");
        const std::int32_t vcWin =
            inputStage_[static_cast<std::size_t>(p)].arbitrateMask(mask);
        stageOne_[static_cast<std::size_t>(p)] = vcWin;
        if (vcWin >= 0) {
            const PortId out =
                outPorts[static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(numVcs_) +
                         static_cast<std::size_t>(vcWin)];
            if (!outRequested.test(out)) {
                outRequested.set(out);
                outContenders_[static_cast<std::size_t>(out)].clear();
            }
            outContenders_[static_cast<std::size_t>(out)].set(p);
        }
    });

    // Stage 2: each output port, in ascending order, picks one stage-1
    // winner targeting it.
    outRequested.forEachSetBit([&](std::int32_t out) {
        const std::int32_t pWin =
            outputStage_[static_cast<std::size_t>(out)].arbitrateMask(
                outContenders_[static_cast<std::size_t>(out)]);
        if (pWin >= 0) {
            const std::int32_t vcWin =
                stageOne_[static_cast<std::size_t>(pWin)];
            grants_.push_back({pWin, vcWin, out});
        }
    });
    return grants_;
}

} // namespace dvsnet::router
