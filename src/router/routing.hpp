/**
 * @file
 * Routing algorithms.  Section 4.1: "Different routing protocols, both
 * deterministic and adaptive, are supported."
 *
 * - DorRouting: dimension-order (deterministic).  Deadlock-free on meshes
 *   with any number of VCs; on tori it applies the classic dateline scheme
 *   (VC 0 until the packet crosses the wraparound edge of the dimension it
 *   is traversing, VC 1 from the crossing hop onward), which requires
 *   >= 2 VCs.
 * - MinimalAdaptiveRouting: Duato-style — fully adaptive minimal hops on
 *   the "adaptive" VCs plus a dimension-order escape path restricted to
 *   VC 0.  Mesh only.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/fatal.hpp"
#include "router/flit.hpp"
#include "router/limits.hpp"
#include "topo/topology.hpp"

namespace dvsnet::router
{

/** One legal (output port, allowed downstream VC set) choice. */
struct RouteCandidate
{
    PortId outPort;
    std::uint32_t vcMask;  ///< bit v set => downstream VC v allowed
};

/**
 * The candidates of one route computation, in a fixed-capacity array:
 * a route offers at most one candidate per dimension plus the escape
 * path (dims + 1), and a router has at most kMaxPorts ports, two per
 * dimension plus the terminal, so it never needs the heap.  Entries
 * past size() are left uninitialized, so an empty one costs nothing to
 * make.
 */
class RouteCandidates
{
  public:
    static constexpr std::size_t kCapacity =
        static_cast<std::size_t>((kMaxPorts - 1) / 2 + 1);

    void clear() { size_ = 0; }

    void
    push_back(const RouteCandidate &candidate)
    {
        DVSNET_ASSERT(size_ < kCapacity, "route candidate capacity");
        items_[size_++] = candidate;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const RouteCandidate &operator[](std::size_t i) const { return items_[i]; }
    const RouteCandidate &back() const { return items_[size_ - 1]; }
    const RouteCandidate *begin() const { return items_.data(); }
    const RouteCandidate *end() const { return items_.data() + size_; }

  private:
    std::size_t size_ = 0;
    std::array<RouteCandidate, kCapacity> items_;
};

/** Strategy interface for route computation. */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /**
     * Compute legal next hops for a packet at router `cur` headed to
     * `dst`.  If cur == dst, the single candidate is the terminal port
     * with all VCs allowed.
     *
     * @param cur router where the head flit is buffered
     * @param inPort input port the packet occupies (terminal for injection)
     * @param inVc VC the packet occupies at cur (carries dateline state)
     * @param dst destination terminal
     * @param[out] out candidate list (cleared first)
     */
    virtual void route(NodeId cur, PortId inPort, VcId inVc, NodeId dst,
                       RouteCandidates &out) const = 0;

    /** Short name for reports. */
    virtual const char *name() const = 0;
};

/** Dimension-order routing. */
class DorRouting final : public RoutingAlgorithm
{
  public:
    /**
     * @param topo topology to route on
     * @param numVcs VCs per port (>= 2 required for torus datelines)
     */
    DorRouting(const topo::KAryNCube &topo, std::int32_t numVcs);

    void route(NodeId cur, PortId inPort, VcId inVc, NodeId dst,
               RouteCandidates &out) const override;

    const char *name() const override { return "dor"; }

  private:
    const topo::KAryNCube &topo_;
    std::uint32_t allVcMask_;
};

/** Minimal adaptive routing with a dimension-order escape VC (mesh only). */
class MinimalAdaptiveRouting final : public RoutingAlgorithm
{
  public:
    MinimalAdaptiveRouting(const topo::KAryNCube &topo, std::int32_t numVcs);

    void route(NodeId cur, PortId inPort, VcId inVc, NodeId dst,
               RouteCandidates &out) const override;

    const char *name() const override { return "min-adaptive"; }

  private:
    const topo::KAryNCube &topo_;
    std::uint32_t adaptiveVcMask_;  ///< all VCs except the escape VC 0
    std::uint32_t allVcMask_;
};

} // namespace dvsnet::router
