/**
 * @file
 * Pipelined virtual-channel router with credit-based flow control.
 *
 * Microarchitecture (per Section 4.2: Alpha-21364-like, 13-stage
 * pipeline, two VCs, 128 flit buffers per input port):
 *
 *   arrival -> [RC] -> [VA] -> [SA] -> crossbar + delay pipe -> channel
 *
 * The three allocation stages are modeled cycle-accurately with one cycle
 * each (processed in reverse order within a cycle step so results become
 * visible to the next stage one cycle later); the remaining pipeline depth
 * is a fixed delay between switch traversal and channel departure so the
 * zero-load in-router latency equals `pipelineLatency` cycles.
 *
 * Measurement taps for the DVS policy (Section 3.1):
 *  - link utilization comes from the channel itself (serialization busy
 *    time, see DvsChannel);
 *  - downstream input-buffer occupancy is tracked per output port from
 *    credit state ("most routers use credit-based flow control; current
 *    buffer utilization is thus already available");
 *  - input-buffer age (Eq. 4) is accumulated per input port as flits
 *    depart their buffers.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "router/allocator.hpp"
#include "router/limits.hpp"
#include "router/buffer.hpp"
#include "router/flit.hpp"
#include "router/inbox.hpp"
#include "router/link_iface.hpp"
#include "router/routing.hpp"

namespace dvsnet::router
{

/** Static configuration of one router. */
struct RouterConfig
{
    PortId numPorts = 5;            ///< including the terminal (last) port
    std::int32_t numVcs = 2;        ///< virtual channels per port
    std::size_t bufferPerPort = 128; ///< flit slots per input port
    Cycle pipelineLatency = 13;     ///< zero-load in-router cycles (>= 3)

    /**
     * Check the geometry against the validated capacities in
     * router/limits.hpp (ports, VCs per port, dense input-VC space)
     * and basic sanity (pipeline depth, buffer split).  Returns one
     * human-readable problem per violation, each naming the bound;
     * empty means valid.  Router's constructor throws ConfigError on
     * violations, and NetworkConfig::validate() folds these in.
     */
    std::vector<std::string> validate() const;
};

/** Counters exported for diagnostics and tests. */
struct RouterStats
{
    std::uint64_t flitsArrived = 0;
    std::uint64_t flitsForwarded = 0;
    std::uint64_t headsRouted = 0;
    std::uint64_t vcGrants = 0;
    std::uint64_t switchGrants = 0;
};

/** One input-queued VC router. */
class Router
{
  public:
    /**
     * @param id node id of this router
     * @param config geometry and pipeline depth
     * @param routing routing algorithm (owned by the caller, outlives us)
     * @param packets the network's packet table, which the flits'
     *        slots index (owned by the caller, outlives us)
     * @throws ConfigError when `config.validate()` reports problems.
     */
    Router(NodeId id, const RouterConfig &config,
           const RoutingAlgorithm &routing, const PacketTable &packets);

    NodeId id() const { return id_; }
    const RouterConfig &config() const { return config_; }

    /**
     * Attach the outgoing channel of `port`.
     * @param link data path (not owned)
     * @param downstreamVcCapacity per-VC credit count to initialize
     */
    void connectOutput(PortId port, FlitChannel *link,
                       std::size_t downstreamVcCapacity);

    /**
     * Attach the node's ejection path to the terminal port (the last
     * port).  The node consumes each flit as it arrives, so flits
     * leaving through it spend no credits and the port keeps no
     * downstream-occupancy average.
     * @param sink data path (not owned)
     */
    void connectEjection(FlitChannel *sink);

    /** Attach the credit-return path for flits consumed at input `port`. */
    void connectCreditReturn(PortId port, CreditChannel *path);

    /** Inbox a channel delivers flits into (input side of `port`). */
    Inbox<Flit> &flitInbox(PortId port);

    /** Inbox the downstream router's credits arrive in (output `port`). */
    Inbox<VcId> &creditInbox(PortId port);

    /**
     * Install the router-level wake hook, fired whenever a delivery
     * (flit, credit, or terminal injection) lands in one of this
     * router's inboxes while that inbox is empty.  The router keeps its
     * own per-port pending masks; the hook is the network's signal that
     * the router may be due earlier than it last reported
     * (nextStep()).
     */
    void setWakeHook(InlineFn hook) { wake_ = std::move(hook); }

    /**
     * Execute one router-core cycle at edge `now`.  Returns nextStep(now)
     * as it stands after the step.
     */
    Tick step(Tick now);

    /**
     * The first edge at which a step can do anything: the edge after
     * `now` while a flit is buffered, else the first edge at or after
     * the earliest flit or credit waiting in an inbox, else
     * kTickNever.  After a step at `now` it lies after `now`; a step
     * at any earlier edge drains and allocates nothing, so the network
     * skips the router until then.
     */
    Tick nextStep(Tick now) const;

    /** Free slots in the terminal input VC (for the injection process). */
    std::size_t terminalFreeSlots(VcId vc) const;

    /** Total buffered flits at input `port` (Eq. 3 numerator F(t)). */
    std::size_t bufferOccupancy(PortId port) const;

    /**
     * Downstream occupancy estimate for output `port`, as a fraction of
     * downstream capacity, integrated since the last takeWindow call.
     * This is the BU measure of Eq. 3 as seen through credit state.
     */
    double takeBufferUtilWindow(PortId port, Tick now);

    /** Current instantaneous downstream-occupancy fraction. */
    double bufferUtilNow(PortId port) const;

    /**
     * Input-buffer age accumulated at input `port` since the last call:
     * (sum of ages in cycles, departed flit count) — Eq. 4 terms.
     */
    std::pair<double, std::uint64_t> takeBufferAgeWindow(PortId port);

    /** Available downstream credits at output `port` for VC `vc`. */
    std::size_t creditCount(PortId port, VcId vc) const;

    const RouterStats &stats() const { return stats_; }

  private:
    struct OutputUnit
    {
        FlitChannel *link = nullptr;
        bool credited = false;  ///< false on the ejection port
        std::size_t downstreamCapacity = 0;  ///< total flit slots downstream
        TimeWeightedAverage occupancy;       ///< downstream occupancy (flits)
        double occupancyNow = 0.0;
        Inbox<VcId> creditInbox;
    };

    struct InputUnit
    {
        InputBuffer buffer;
        CreditChannel *creditReturn = nullptr;
        Inbox<Flit> flitInbox;
        double ageSumCycles = 0.0;   ///< Eq. 4 numerator, current window
        std::uint64_t departed = 0;  ///< Eq. 4 denominator, current window

        explicit InputUnit(const RouterConfig &cfg)
            : buffer(cfg.numVcs, cfg.bufferPerPort)
        {}
    };

    void drainCredits(Tick now);
    void drainFlitsAndBid(Tick now);
    void applySwitchGrants(Tick now);
    void vcAllocate();
    void routeCompute();

    std::int32_t vcIndex(PortId port, VcId vc) const
    {
        return port * config_.numVcs + vc;
    }

    /** Reset dense VC `idx`'s pipeline state after its tail departs. */
    void
    releaseVc(std::int32_t idx)
    {
        vcState_[static_cast<std::size_t>(idx)] = VcState::Idle;
        vcOutPort_[static_cast<std::size_t>(idx)] = kInvalidId;
        vcOutVc_[static_cast<std::size_t>(idx)] = kInvalidId;
    }

    NodeId id_;
    RouterConfig config_;
    const RoutingAlgorithm &routing_;
    const PacketTable &packets_;
    std::vector<InputUnit> inputs_;
    std::vector<OutputUnit> outputs_;
    SeparableVcAllocator vcAlloc_;
    SeparableSwitchAllocator swAlloc_;
    Tick extraDelayTicks_;  ///< SA-to-departure pipeline padding
    std::size_t bufferedFlits_ = 0;  ///< total across all input VCs
    RouterStats stats_;

    // Per-VC pipeline state, structure-of-arrays indexed by the dense
    // vcIndex(port, vc): the RC/VA/SA stage scans touch exactly these
    // slabs plus the FIFO fronts, so a scan walks contiguous memory
    // instead of chasing per-unit objects.  `credits_` is the
    // downstream credit count per *output* (port, vc), same dense
    // indexing.  The VCs waiting in VcAlloc, with the downstream VCs
    // their routes allow, and the free downstream VCs are kept by
    // vcAlloc_.
    std::vector<VcState> vcState_;         ///< pipeline stage per input VC
    std::vector<PortId> vcOutPort_;        ///< routed output port
    std::vector<VcId> vcOutVc_;            ///< granted downstream VC
    std::vector<std::uint32_t> credits_;   ///< per output (port, vc)
    std::vector<PortId> vcPort_;           ///< input port of each dense VC

    // Activity masks — the router's own gating layer.  Port bits are
    // set by the inbox wake hooks and cleared when a drain empties the
    // inbox; VC bits (dense index vcIndex(p, v), so ascending bit order
    // equals the ascending (port, vc) scan order of the allocation
    // stages) mirror the Routing and Active states of vcState_
    // exactly.  They bound nextStep() to the pending ports and the
    // per-cycle stage scans to popcount-bounded loops.  PortSet is
    // one word; InputVcSet spans kMaxInputVcs bits (common/bitmask.hpp)
    // so geometries beyond 64 input VCs stay on the same scan code.
    PortSet pendingFlitPorts_;    ///< flitInbox(p) non-empty
    PortSet pendingCreditPorts_;  ///< creditInbox(p) non-empty
    InputVcSet routingVcs_;   ///< VCs in VcState::Routing
    InputVcSet activeVcs_;    ///< VCs in VcState::Active
    PortSet activeVcPorts_;   ///< ports with any Active VC
    std::uint64_t portVcMask_ = 0;     ///< low numVcs bits set
    InlineFn wake_;  ///< network-level wake, chained from inbox hooks

    // Fused drain/SA scratch: drainFlitsAndBid fills the per-port VC
    // request masks and per-VC target ports in the same pass that
    // drains the inboxes; applySwitchGrants feeds them straight to the
    // switch allocator.  Entries outside saReqPorts_ are stale
    // by design and never read.
    std::vector<std::uint32_t> saReqMasks_;  ///< per input port
    std::vector<PortId> saOutPorts_;         ///< per dense input VC
    PortSet saReqPorts_;                     ///< ports with any SA bid
};

} // namespace dvsnet::router
