#include "router/allocator.hpp"

#include <bit>

#include "common/fatal.hpp"

namespace dvsnet::router
{

SeparableVcAllocator::SeparableVcAllocator(PortId numPorts,
                                           std::int32_t numVcs,
                                           std::int32_t numRequesters)
    : numPorts_(numPorts), numVcs_(numVcs), numRequesters_(numRequesters),
      allVcs_(numVcs >= 32 ? ~0u : (1u << numVcs) - 1)
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
    const auto resources = static_cast<std::size_t>(numPorts) *
                           static_cast<std::size_t>(numVcs);
    ports_.resize(static_cast<std::size_t>(numPorts));
    resources_.assign(resources, Resource(numRequesters));
    requestMask_.assign(static_cast<std::size_t>(numRequesters), 0);
}

const std::vector<VcGrant> &
SeparableVcAllocator::allocate()
{
    grants_.clear();

    // Resources are visited in ascending (port, vc) order; each free
    // resource somebody waits for round-robins over its waiters.  A
    // winner stops waiting at once, so later resources see only the
    // input VCs not granted yet.  Re-masking `effective` with `wanted`
    // after each grant skips a resource whose last waiter was just
    // granted, so every arbitration has a waiter to pick.  A port left
    // out of readyPorts_ has no free VC anybody waits for, so visiting
    // it would grant nothing and move no arbiter; and once a port is
    // done, none of its free VCs is wanted any more.
    const PortSet ports = readyPorts_;
    readyPorts_.clear();
    ports.forEachSetBit([&](std::int32_t port) {
        auto &pv = ports_[static_cast<std::size_t>(port)];
        const std::size_t base = static_cast<std::size_t>(port) *
                                 static_cast<std::size_t>(numVcs_);
        std::uint32_t effective = pv.wanted & pv.free;
        while (effective != 0) {
            const VcId vc = std::countr_zero(effective);
            auto &res = resources_[base + static_cast<std::size_t>(vc)];
            const std::int32_t winner =
                res.arbiter.arbitrateMask(res.waiting);
            grants_.push_back({winner, port, vc});
            pv.free &= ~(1u << vc);

            // Withdraw the winner from every resource it waited for.
            auto &mask = requestMask_[static_cast<std::size_t>(winner)];
            for (std::uint32_t m = mask; m != 0; m &= m - 1) {
                const auto v = std::countr_zero(m);
                auto &set =
                    resources_[base + static_cast<std::size_t>(v)].waiting;
                set.reset(winner);
                if (set.none())
                    pv.wanted &= ~(1u << v);
            }
            mask = 0;
            effective &= pv.wanted & (effective - 1);
        }
    });
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
