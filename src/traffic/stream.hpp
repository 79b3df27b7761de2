/**
 * @file
 * Packet streams: open-loop traffic generated once, ahead of the
 * network, and pulled by any number of networks.
 *
 * An open-loop generator's packets do not depend on the network it
 * feeds, so matched points (same workload inputs, different policy or
 * routing) can share one recording instead of each running its own
 * generator interleaved with the router loop.  PacketStream::record()
 * runs the generator alone on a bare kernel beside a stub event chain
 * that mirrors the network's router clock edges, and marks each packet
 * created exactly on an edge after that edge's step
 * (StreamPacket::afterStep).  A network fed through
 * Network::attachStream() creates every packet at its recorded tick, on
 * the same side of the same step as the live run, so its results are
 * bit-identical to attaching the generator itself.
 *
 * Encoding: one LEB128 varint per packet holding
 * `tick delta << 2 | extended << 1 | afterStep`, then src and dst; an
 * extended packet (non-zero size, class or tag) adds those three.  That
 * is ~4 bytes per packet on the paper's 8x8 mesh.  A recorded stream is
 * immutable, so threads share it read-only, each through its own
 * cursor.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::traffic
{

/** A compact, append-only sequence of StreamPackets. */
class PacketStream
{
  public:
    /** An empty stream covering ticks up to `horizon`. */
    explicit PacketStream(Tick horizon = kTickNever) : horizon_(horizon) {}

    /**
     * Record every packet `generator` creates at a tick <= `horizon`.
     * A live generator runs alone on a bare sim::Kernel and is spent
     * afterwards; a replaying one (openStream()) is copied with its
     * after-step bits.  @pre !generator.wantsDeliveries(): closed-loop
     * traffic depends on the network and must run live.
     */
    static PacketStream record(TrafficGenerator &generator, Tick horizon);

    /** Append one packet; ticks must be non-decreasing. */
    void append(const StreamPacket &packet);

    /** Packets held. */
    std::size_t size() const { return size_; }

    /** Encoded size in bytes. */
    std::size_t bytes() const { return bytes_.size(); }

    /** Last tick the stream covers (kTickNever: complete). */
    Tick horizon() const { return horizon_; }

    /** A cursor from the first packet; the stream must outlive it. */
    std::unique_ptr<PacketCursor> cursor() const;

  private:
    std::vector<unsigned char> bytes_;
    std::size_t size_ = 0;
    Tick last_ = 0;  ///< tick of the last packet appended
    Tick horizon_;
};

} // namespace dvsnet::traffic
