#include "router/routing.hpp"

#include "common/fatal.hpp"

namespace dvsnet::router
{

namespace
{

std::uint32_t
maskOfVcs(std::int32_t numVcs)
{
    DVSNET_ASSERT(numVcs > 0 && numVcs <= 32, "unsupported VC count");
    return numVcs == 32 ? ~0u : ((1u << numVcs) - 1u);
}

} // namespace

DorRouting::DorRouting(const topo::KAryNCube &topo, std::int32_t numVcs)
    : topo_(topo), allVcMask_(maskOfVcs(numVcs))
{
    if (topo.isTorus()) {
        DVSNET_ASSERT(numVcs >= 2,
                      "torus dateline routing needs >= 2 VCs");
    }
}

void
DorRouting::route(NodeId cur, PortId inPort, VcId inVc, NodeId dst,
                  RouteCandidates &out) const
{
    out.clear();

    if (cur == dst) {
        out.push_back({topo_.terminalPort(), allVcMask_});
        return;
    }

    // Lowest unresolved dimension first (x-then-y on a 2-D mesh).
    for (std::int32_t d = 0; d < topo_.dims(); ++d) {
        const std::int32_t cc = topo_.coordinate(cur, d);
        const std::int32_t dc = topo_.coordinate(dst, d);
        if (cc == dc)
            continue;

        bool plus;
        if (!topo_.isTorus()) {
            plus = dc > cc;
        } else {
            const std::int32_t fwd =
                dc > cc ? dc - cc : dc - cc + topo_.radix();
            const std::int32_t bwd = topo_.radix() - fwd;
            // Shorter way around; ties resolved toward plus for determinism.
            plus = fwd <= bwd;
        }

        const PortId port = topo::KAryNCube::dirPort(d, plus);
        std::uint32_t mask = allVcMask_;
        if (topo_.isTorus()) {
            // Dateline scheme: the packet rides VC 0 within a dimension
            // until the hop that crosses the wraparound edge, then VC 1
            // for the rest of that dimension.  Crossing state is carried
            // by the VC itself: a packet continuing in the same dimension
            // on VC 1 has already crossed.
            const bool hop_wraps = plus ? (cc == topo_.radix() - 1)
                                        : (cc == 0);
            const bool same_dim = inPort != topo_.terminalPort() &&
                                  topo::KAryNCube::portDim(inPort) == d;
            const bool crossed = (same_dim && inVc >= 1) || hop_wraps;
            mask = crossed ? 0b10u : 0b01u;
        }
        out.push_back({port, mask});
        return;
    }

    DVSNET_PANIC("DOR found no differing dimension for distinct nodes");
}

MinimalAdaptiveRouting::MinimalAdaptiveRouting(const topo::KAryNCube &topo,
                                               std::int32_t numVcs)
    : topo_(topo),
      adaptiveVcMask_(maskOfVcs(numVcs) & ~1u),
      allVcMask_(maskOfVcs(numVcs))
{
    DVSNET_ASSERT(!topo.isTorus(),
                  "minimal adaptive routing implemented for meshes only");
    DVSNET_ASSERT(numVcs >= 2,
                  "adaptive routing needs an escape VC plus >= 1 adaptive VC");
}

void
MinimalAdaptiveRouting::route(NodeId cur, PortId inPort, VcId inVc,
                              NodeId dst, RouteCandidates &out) const
{
    (void)inPort;
    (void)inVc;
    out.clear();

    if (cur == dst) {
        out.push_back({topo_.terminalPort(), allVcMask_});
        return;
    }

    // Adaptive choices: every minimal direction, on the adaptive VCs.
    PortId escapePort = kInvalidId;
    for (std::int32_t d = 0; d < topo_.dims(); ++d) {
        const std::int32_t cc = topo_.coordinate(cur, d);
        const std::int32_t dc = topo_.coordinate(dst, d);
        if (cc == dc)
            continue;
        const PortId port = topo::KAryNCube::dirPort(d, dc > cc);
        if (escapePort == kInvalidId)
            escapePort = port;  // lowest dimension = DOR escape direction
        out.push_back({port, adaptiveVcMask_});
    }

    // Escape path: the DOR next hop on VC 0 (Duato's deadlock-free
    // sub-network).
    DVSNET_ASSERT(escapePort != kInvalidId, "no productive direction");
    out.push_back({escapePort, 0b01u});
}

} // namespace dvsnet::router
