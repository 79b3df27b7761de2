/**
 * @file
 * Traffic-generation interface.  Generators schedule themselves on the
 * simulation kernel and hand typed PacketRequests to the network through
 * a PacketSink; the network owns packetization, source queuing and
 * injection flow control.
 *
 * Request/reply workloads (e.g. the CMP cache-coherence generator) need
 * the reverse direction too: a generator that overrides
 * wantsDeliveries() receives onDelivered() once per fully ejected
 * packet, with the original request (tag included) echoed back.  That
 * closes the loop between network latency and offered load — a DVS
 * policy that slows links now also slows the workload that feeds them,
 * as in a real system.
 *
 * Open-loop traffic can also reach a network as a finished recording:
 * a PacketCursor over StreamPackets, which the network pulls at its
 * router clock edges (Network::attachStream; traffic/stream.hpp
 * records one from any open-loop generator).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hpp"
#include "sim/kernel.hpp"

namespace dvsnet::traffic
{

/**
 * One packet-creation request.
 *
 * `sizeFlits == 0` means "use the network's configured packet length";
 * generators that model a message-size mix (short coherence control
 * packets vs. cache-line data packets) set it explicitly.
 * `trafficClass` is carried through to delivery unchanged and lets a
 * generator or probe distinguish flows (e.g. request vs. reply);
 * `tag` is an opaque generator-owned value echoed in delivery
 * notifications, typically a transaction id.
 */
struct PacketRequest
{
    NodeId src = kInvalidId;
    NodeId dst = kInvalidId;
    std::uint16_t sizeFlits = 0;    ///< flits; 0 = network default
    std::uint8_t trafficClass = 0;  ///< generator-defined flow class
    std::uint64_t tag = 0;          ///< echoed back on delivery

    bool operator==(const PacketRequest &) const = default;
};

/** Callback a generator invokes to create one packet now. */
using PacketSink = std::function<void(const PacketRequest &request)>;

/**
 * One packet of a recorded stream: its creation tick, the request, and
 * which side of a router clock edge's step it was created on.
 *
 * Only packets created exactly on an edge can carry `afterStep`.  In a
 * live run the same-tick order of a generator event and the network's
 * step is the kernel's FIFO order, so a packet at edge T is queued
 * before the step at T (and injected by it) or after it (and injected
 * one edge later).  The bit records which, so a replay injects every
 * packet on the edge the live run did.
 */
struct StreamPacket
{
    Tick when = 0;
    PacketRequest request;
    bool afterStep = false;

    bool operator==(const StreamPacket &) const = default;
};

/** Sequential read access to a packet stream, in creation order. */
class PacketCursor
{
  public:
    virtual ~PacketCursor() = default;

    /** Read the next packet into `out`; false at the end of the stream. */
    virtual bool next(StreamPacket &out) = 0;

    /**
     * Last tick the stream covers.  A recording of a generator ends at
     * its horizon, and a network that runs past it fails rather than
     * silently running out of packets; kTickNever marks a complete
     * stream (a trace: no packet follows its last one).
     */
    virtual Tick horizon() const = 0;
};

/** A source of packet arrivals. */
class TrafficGenerator
{
  public:
    virtual ~TrafficGenerator() = default;

    /** Begin generating; schedules events on `kernel`. */
    virtual void start(sim::Kernel &kernel, PacketSink sink) = 0;

    /**
     * Opt-in to per-packet delivery notifications.  When true, the
     * network calls onDelivered() once per packet whose last flit is
     * ejected at its destination.  Off by default: open-loop generators
     * pay nothing for the mechanism.
     */
    virtual bool wantsDeliveries() const { return false; }

    /**
     * A packet previously requested through the sink has been fully
     * ejected at `request.dst`; `arrival` is the ejection tick of its
     * last flit.  Only called when wantsDeliveries() is true.  Runs
     * inside the network's cycle step: injecting in response must go
     * through the sink (which enqueues) or a scheduled kernel event,
     * both of which are safe here.
     */
    virtual void onDelivered(const PacketRequest &request, Tick arrival)
    {
        (void)request;
        (void)arrival;
    }

    /**
     * Generators that replay a finished recording (packet traces)
     * return a cursor over it from the first packet; the generator must
     * outlive the cursor.  A network attaching such a generator pulls
     * the cursor at its clock edges instead of calling start().  The
     * default, nullptr, means the generator runs live.
     */
    virtual std::unique_ptr<PacketCursor> openStream() { return nullptr; }

    /** Short name for reports. */
    virtual const char *name() const = 0;
};

} // namespace dvsnet::traffic
