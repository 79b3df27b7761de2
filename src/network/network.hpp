/**
 * @file
 * Network assembly: topology + routers + DVS channels + controllers +
 * injection/ejection terminals + energy ledger, driven by a synchronous
 * 1 GHz router-core step on top of the event kernel (links and policy
 * controllers schedule their own events at their own clocks, per the
 * paper's separate-clock-domain model).
 */

#pragma once

#include <bit>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "core/controller.hpp"
#include "core/dynamic_threshold.hpp"
#include "core/history_policy.hpp"
#include "core/policy.hpp"
#include "link/dvs_level.hpp"
#include "link/dvs_link.hpp"
#include "network/metrics.hpp"
#include "power/energy_ledger.hpp"
#include "router/router.hpp"
#include "router/routing.hpp"
#include "sim/kernel.hpp"
#include "topo/topology.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::network
{

/** Which policy drives the DVS controllers. */
enum class PolicyKind
{
    None,         ///< no controllers; links pinned at their initial level
    History,      ///< the paper's Algorithm 1
    LinkUtilOnly, ///< ablation: Algorithm 1, litmus off (B_congested = inf)
    StaticLevel,  ///< drive all links to a fixed level
    DynamicThreshold,  ///< Section 4.4.2 extension: self-tuning TL bank
};

/** Routing selection. */
enum class RoutingKind
{
    Dor,
    MinimalAdaptive,
};

/** Stable lower-case names for artifact/config serialization. */
const char *policyKindName(PolicyKind kind);
const char *routingKindName(RoutingKind kind);

/** Full network configuration (defaults = the paper's Section 4.2). */
struct NetworkConfig
{
    std::int32_t radix = 8;
    std::int32_t dims = 2;
    bool torus = false;

    router::RouterConfig router;  ///< numPorts is derived from topology

    link::DvsLinkParams link;

    PolicyKind policy = PolicyKind::History;
    core::HistoryDvsParams policyParams;
    Cycle policyWindow = 200;     ///< H (Table 1)
    Cycle policyCooldown = 0;     ///< post-transition hold, in windows
    std::size_t staticLevel = 0;  ///< for PolicyKind::StaticLevel

    RoutingKind routing = RoutingKind::Dor;

    std::uint16_t packetLength = 5;  ///< flits per packet

    /**
     * Link power backend spec, `<name>[:key=val,...]` — "table" (the
     * paper's fitted law, default) or "toggle:key=val,..." (data-
     * dependent per-flit toggle/coupling energy).  Validated against
     * power::linkPowerRegistry(); one shared backend instance
     * is built per network and drives every channel.
     */
    std::string linkPowerSpec = "table";

    /**
     * Check the configuration for nonsense (radix < 2, zero VCs,
     * staticLevel beyond the level table, ...).  Returns one
     * human-readable problem description per violation; empty means
     * valid.  Network's constructor calls this and throws ConfigError
     * listing every problem, so a bad config fails fast with a message
     * instead of crashing deep inside construction or simulation.
     */
    std::vector<std::string> validate() const;
};

/**
 * Config echo for run artifacts and search evaluation keys: every
 * NetworkConfig field, except router.numPorts, which Network derives
 * from the topology.
 */
Json toJson(const NetworkConfig &config);

/** The simulated interconnection network. */
class Network
{
  public:
    /** @throws ConfigError when `config.validate()` reports problems. */
    explicit Network(const NetworkConfig &config);

    /** The event kernel (shared with traffic generators and probes). */
    sim::Kernel &kernel() { return kernel_; }

    const topo::KAryNCube &topology() const { return topo_; }

    const NetworkConfig &config() const { return config_; }

    /**
     * Attach and start a traffic generator.  Generators opting in via
     * wantsDeliveries() are additionally wired to the delivery hook.  A
     * generator replaying a recording (openStream()) is attached
     * through attachStream() instead of started.
     */
    void attachTraffic(traffic::TrafficGenerator &generator);

    /**
     * Feed the network from a recorded packet stream (the pull path).
     * At each router clock edge T, before the injection scan, the
     * network creates every packet recorded before T plus those at T
     * without the after-step bit; runUntilCycle() ends by creating the
     * rest up to the current tick, so a window begun next starts on the
     * same packet as a live run.  Every packet keeps its recorded
     * creation tick, so a stream recorded from an open-loop generator
     * (traffic::PacketStream::record) reproduces attaching that
     * generator bit for bit.  One stream per network.
     * @throws ConfigError from runUntilCycle() past the stream's horizon
     */
    void attachStream(std::unique_ptr<traffic::PacketCursor> stream);

    /**
     * Create one packet (enters the source queue).  A zero
     * `request.sizeFlits` uses the configured packet length; the
     * traffic class and tag ride along and are echoed to the delivery
     * hook when the packet's last flit is ejected.
     */
    void injectPacket(const traffic::PacketRequest &request);

    /** Convenience: default-length, class-0, untagged packet. */
    void injectPacket(NodeId src, NodeId dst)
    {
        injectPacket(traffic::PacketRequest{src, dst});
    }

    /** Per-packet delivery notification (tag echoed back). */
    using DeliveryFn =
        std::function<void(const traffic::PacketRequest &request,
                           Tick arrival)>;

    /**
     * Opt-in delivery callback: invoked once per packet when its last
     * flit is ejected at the destination, with the original request and
     * the ejection tick, whichever measurement window the packet was
     * created in.  Only packets injected *after* the hook is set are
     * reported (the packet table marks them for echo at injection
     * time).  Setting an empty function disables the mechanism and
     * clears every mark.
     */
    void setDeliveryHook(DeliveryFn hook);

    /**
     * Run the standard experiment: `warmup` cycles, then reset all
     * measurement windows and run `measure` cycles.  The per-cycle step
     * chain is started on first use.
     */
    RunResults run(Cycle warmup, Cycle measure);

    /** Advance the simulation to an absolute cycle (step chain active). */
    void runUntilCycle(Cycle cycle);

    /** Reset all measurement windows at the current instant. */
    void beginMeasurement();

    /**
     * Summarize the window ending now.  Repeatable: a run collected,
     * run on and collected again reports what one collected once at
     * the later cycle reports, invariantChecks included.
     */
    RunResults collect() const;

    // --- component access for probes, benches and tests ---

    router::Router &router(NodeId node);
    link::DvsChannel &channel(ChannelId id);
    std::size_t numChannels() const { return channels_.size(); }
    power::EnergyLedger &ledger() { return *ledger_; }
    MetricsCollector &metrics() { return metrics_; }
    const link::DvsLevelTable &levelTable() const { return levels_; }

    /**
     * Counters and SimAssert invariants registered by this network's
     * components (credit conservation, packet accounting, ledger
     * agreement, DVS transition sequencing).  Queryable mid-run and
     * exportable via CounterRegistry::toJson().
     */
    CounterRegistry &observability() const { return registry_; }

    /** Controller for channel `id`; nullptr when policy == None. */
    core::PortDvsController *controller(ChannelId id);

    /** Packets created at `node` since construction (Figs. 8-9). */
    std::uint64_t packetsCreatedAt(NodeId node) const;

    /** Flits waiting in `node`'s source queue. */
    std::size_t sourceQueueDepth(NodeId node) const;

    /** Mean DVS level across channels right now. */
    double averageChannelLevel() const;

    /** Current cycle number. */
    Cycle currentCycle() const { return ticksToCycles(kernel_.now()); }

    /**
     * Routers in the step set (including those joining at the next
     * clock edge).  A router leaves it when its step reports a later
     * edge (Router::nextStep) and rejoins at that edge, or earlier when
     * a delivery or injection lands in one of its empty inboxes — see
     * DESIGN.md "Network gating".
     */
    std::size_t activeRouterCount() const
    {
        return steppingRouters_.count() + joiningRouters_.count();
    }

    /** Sources with queued packets (the per-cycle injection scan). */
    std::size_t activeSourceCount() const { return queuedSources_.count(); }

    /**
     * Verify credit conservation on every channel: upstream credits +
     * downstream buffer occupancy + flits and credits in flight equal
     * the downstream buffer capacity.  Panics on violation; used by the
     * test suite as a whole-network flow-control invariant.
     */
    void verifyFlowControlInvariants() const;

  private:
    /** Terminal output: absorbs flits and reports them to the metrics. */
    class EjectionSink final : public router::FlitChannel
    {
      public:
        EjectionSink(Network &net) : net_(net) {}

        bool canAccept(Tick) const override { return true; }

        Tick
        send(const router::Flit &flit, Tick earliest) override
        {
            // Immediate ejection: one cycle to leave the router.
            net_.onFlitEjected(flit, earliest + kRouterClockPeriod);
            return earliest;
        }

      private:
        Network &net_;
    };

    struct SourceState
    {
        std::deque<router::PacketSlot> queue;  ///< packets not yet injected
        std::uint16_t nextSeq = 0;  ///< within queue.front()
        VcId vc = kInvalidId;       ///< terminal VC of the packet in flight
        std::uint64_t created = 0;  ///< total packets generated here
    };

    void build();
    void startStepping();
    void stepQuantum();
    void injectFromQueue(NodeId node);

    /** Enqueue one packet created at `created` (<= now). */
    void createPacket(const traffic::PacketRequest &request, Tick created);

    /**
     * Create the stream's packets due by now: those before now, and
     * those at now either before the step (`withAfterStep` false) or
     * all of them.
     */
    void pullStream(bool withAfterStep);

    /**
     * A delivery landed in an empty inbox of `node`: unless the router
     * is in the step set, step it at its next due edge.
     */
    void wakeRouter(NodeId node);

    /**
     * Step the sleeping router `node` at edge `edge`: join the step set
     * now when that is at or before the next edge, else arm one timed
     * wake, unless an earlier one is armed.
     */
    void scheduleStep(NodeId node, Tick edge);

    /** Add `node` to the routers joining the step set. */
    void joinStepSet(NodeId node);

    void onFlitEjected(const router::Flit &flit, Tick arrival);
    std::unique_ptr<core::DvsPolicy> makePolicy() const;

    NetworkConfig config_;
    topo::KAryNCube topo_;
    sim::Kernel kernel_;
    link::DvsLevelTable levels_;
    std::unique_ptr<power::EnergyLedger> ledger_;
    std::unique_ptr<power::LinkPowerModel> linkPowerModel_;
    std::unique_ptr<router::RoutingAlgorithm> routing_;
    std::vector<std::unique_ptr<router::Router>> routers_;
    std::vector<std::unique_ptr<link::DvsChannel>> channels_;
    std::vector<std::unique_ptr<core::PortDvsController>> controllers_;
    std::vector<std::unique_ptr<EjectionSink>> sinks_;
    std::vector<SourceState> sources_;

    /** Every packet in flight; flits, source queues, the metrics and
     *  the delivery echo index it by slot.  Declared before metrics_,
     *  which holds a reference to it. */
    router::PacketTable packets_;
    MetricsCollector metrics_{packets_};

    /** Mutable: invariant checks from const paths (collect()) count
     *  their executions here. */
    mutable CounterRegistry registry_;

    /** Invariant checks and failures of the sweeps of earlier
     *  collect() calls, which later results leave out. */
    mutable std::uint64_t sweptChecks_ = 0;
    mutable std::uint64_t sweptFailures_ = 0;

    /** Ordered set of node ids, one bit each. */
    class NodeSet
    {
      public:
        void resize(NodeId nodes)
        {
            words_.assign((static_cast<std::size_t>(nodes) + 63) / 64, 0);
        }
        void set(NodeId n) { words_[word(n)] |= bit(n); }
        void reset(NodeId n) { words_[word(n)] &= ~bit(n); }
        bool test(NodeId n) const { return (words_[word(n)] & bit(n)) != 0; }
        std::size_t count() const;

        /** Move every member of `other` into this set. */
        void take(NodeSet &other);

        /** Call `fn(n)` for every member in ascending order; `fn` may
         *  reset `n` and change other sets. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (std::size_t w = 0; w < words_.size(); ++w) {
                for (std::uint64_t m = words_[w]; m != 0; m &= m - 1) {
                    fn(static_cast<NodeId>(w * 64) +
                       std::countr_zero(m));
                }
            }
        }

      private:
        static std::size_t word(NodeId n)
        {
            return static_cast<std::size_t>(n) / 64;
        }
        static std::uint64_t bit(NodeId n)
        {
            return std::uint64_t{1} << (static_cast<std::size_t>(n) % 64);
        }

        std::vector<std::uint64_t> words_;
    };

    // --- activity gating (see stepQuantum) ---
    // Invariant: a router is in at most one of steppingRouters_ and
    // joiningRouters_, and one in neither, asleep, has wakeAt_ at or
    // before its nextStep(), where an armed kernel event adds it to
    // joiningRouters_.  Every router with a buffered flit is in
    // steppingRouters_ after the router pass.
    NodeSet steppingRouters_;  ///< stepped this edge and the next
    NodeSet joiningRouters_;   ///< join steppingRouters_ at the next edge
    NodeSet queuedSources_;    ///< sources with queued packets
    std::vector<Tick> wakeAt_;  ///< per node: armed timed wake, or never

    // Cached observability counters (registered in build()).
    std::uint64_t *ctrCycles_ = nullptr;
    std::uint64_t *ctrRouterSteps_ = nullptr;
    std::uint64_t *ctrRouterWakes_ = nullptr;

    router::PacketId nextPacketId_ = 1;
    bool stepping_ = false;
    Cycle measureStartCycle_ = 0;

    /** Pull path (attachStream): the cursor and its next packet. */
    std::unique_ptr<traffic::PacketCursor> stream_;
    traffic::StreamPacket streamNext_;
    bool streamHasNext_ = false;

    /** Delivery-notification plumbing: empty hook = fully disabled
     *  (no packet marked for echo, no lookups on ejection). */
    DeliveryFn deliveryHook_;
};

} // namespace dvsnet::network
