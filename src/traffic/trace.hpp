/**
 * @file
 * Packet traces: packet streams (traffic/stream.hpp) on disk, recorded
 * from live runs, and replayed into networks.
 *
 * A trace file is a `.dvst` file (a PacketStream's own blocks, the
 * scale format) or CSV, chosen by the file extension.  Both importers
 * build a PacketStream and apply the same packetProblem() rules, so a
 * trace no network can create raises ConfigError naming the CSV line or
 * the `.dvst` entry instead of misparsing or aborting.  CSV carries
 * every field but the tag; replays never need one, since a tag only
 * reaches a generator through the delivery hook and a replay is open
 * loop.
 *
 * ReplayTraffic replays a trace, enabling bit-identical workload
 * reproduction across simulator configurations (comparing DVS policies
 * under *literally* the same packet sequence instead of merely the same
 * seed) and import of externally produced traces.  Open-loop traffic is
 * recorded with PacketStream::record(), which also sets each packet's
 * after-step bit; TraceRecorder wraps a live generator instead, for
 * closed-loop workloads, and leaves the bit clear.
 */

#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "traffic/stream.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::traffic
{

/**
 * Parse CSV into a finished stream.  Accepts CRLF line endings, a
 * trailing newline, an optional header, and 3-column rows
 * (tick,src,dst), 5-column ones (+size,class) or 6-column ones
 * (+after_step, 0 or 1).
 * @param numNodes when > 0, node ids must lie in [0, numNodes)
 * @throws ConfigError naming the line on a malformed row or a packet
 *         packetProblem() rejects
 */
std::unique_ptr<const PacketStream> importCsv(std::istream &in,
                                              NodeId numNodes = 0);

/**
 * Write `stream` as CSV: "tick,src,dst" rows, "tick,src,dst,size,class"
 * when any packet has a size or class, or
 * "tick,src,dst,size,class,after_step" when any after-step bit is set.
 * Tags are not written.
 */
void exportCsv(const PacketStream &stream, std::ostream &out);

/** True when `path` names a `.dvst` file by its extension. */
bool isBinaryTracePath(const std::string &path);

/**
 * Load a trace file of either format into a finished stream.
 * @param numNodes when > 0, node ids must lie in [0, numNodes)
 * @throws ConfigError when the file cannot be read or is rejected
 */
std::unique_ptr<const PacketStream> loadAnyTrace(const std::string &path,
                                                 NodeId numNodes = 0);

/**
 * Save a finished stream in the format `path` names; `numNodes` goes
 * into a `.dvst` header (0 = unknown).  @throws ConfigError on I/O
 */
void saveAnyTrace(const PacketStream &stream, const std::string &path,
                  std::uint32_t numNodes = 0);

/**
 * Wraps another generator, recording everything it emits while passing
 * it through to the network.  Fully transparent: delivery
 * notifications are forwarded to the inner generator, so closed-loop
 * workloads (request/reply) can be recorded from a live network run.
 * It cannot see the network's steps, so every after-step bit is clear;
 * record open-loop traffic with PacketStream::record() instead.
 */
class TraceRecorder final : public TrafficGenerator
{
  public:
    /** @param inner generator to observe (caller-owned, outlives us) */
    explicit TraceRecorder(TrafficGenerator &inner) : inner_(inner) {}

    void start(sim::Kernel &kernel, PacketSink sink) override;

    bool wantsDeliveries() const override
    {
        return inner_.wantsDeliveries();
    }

    void onDelivered(const PacketRequest &request, Tick arrival) override
    {
        inner_.onDelivered(request, arrival);
    }

    const char *name() const override { return "trace-recorder"; }

    /** End the recording and return it; call once, after the run. */
    std::shared_ptr<const PacketStream> finish();

  private:
    TrafficGenerator &inner_;
    std::shared_ptr<PacketStream> stream_ = std::make_shared<PacketStream>();
};

/**
 * Replays a recording: a shared stream, or a `.dvst` file read from
 * disk as the network pulls it, so memory stays O(1) however long the
 * file is.  A network attaching it pulls its openStream() cursor at
 * each router clock edge, so every packet is created on the side of an
 * edge's step its after-step bit names.  start() serves use without a
 * network: it emits each packet at its tick on `kernel`.
 */
class ReplayTraffic final : public TrafficGenerator
{
  public:
    /** @param stream the recording; it may still be recording */
    explicit ReplayTraffic(std::shared_ptr<const PacketStream> stream);

    /**
     * @param numNodes node count of the network it feeds: ids must lie
     *        in [0, numNodes), whatever the header says
     * @throws ConfigError when the file cannot be opened or its header
     *         is bad
     */
    ReplayTraffic(std::string path, NodeId numNodes);

    void start(sim::Kernel &kernel, PacketSink sink) override;

    /** A fresh read from the first packet; a file's throws ConfigError
     *  on a bad entry (DvstCursor::next). */
    std::unique_ptr<PacketCursor> openStream() override;

    const char *name() const override { return "trace-replay"; }

  private:
    void scheduleNext();

    std::shared_ptr<const PacketStream> stream_;  ///< null: read path_
    std::string path_;
    NodeId numNodes_ = 0;

    std::unique_ptr<PacketCursor> cursor_;  ///< start()'s read
    StreamPacket next_;
    sim::Kernel *kernel_ = nullptr;
    PacketSink sink_;
};

} // namespace dvsnet::traffic
