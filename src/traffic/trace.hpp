/**
 * @file
 * Traffic trace capture and replay.
 *
 * A Trace is an ordered list of (tick, src, dst, size, class,
 * after-step) entries: a packet stream (traffic/traffic.hpp) that can
 * live on disk.  TraceTraffic replays one exactly, enabling bit-identical
 * workload reproduction across simulator configurations (e.g. comparing
 * DVS policies under *literally* the same packet sequence instead of
 * merely the same seed) and import of externally produced traces.
 * Open-loop traffic is recorded with traffic::PacketStream::record(),
 * which also sets each entry's after-step bit; TraceRecorder wraps a
 * live generator instead, for closed-loop workloads, and leaves the bit
 * clear.
 *
 * Two on-disk forms exist: a human-readable CSV (this file) and the
 * compact varint-delta binary format in workload/trace_binary.hpp —
 * the scale format for long runs.  Both round-trip losslessly.
 *
 * Malformed trace input (bad fields, decreasing ticks, out-of-range
 * node ids, a packet addressed to its own source) raises ConfigError
 * with the offending line number, so a corrupt trace fails fast instead
 * of silently misparsing.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::traffic
{

/** One recorded packet creation. */
struct TraceEntry
{
    Tick when = 0;
    NodeId src = kInvalidId;
    NodeId dst = kInvalidId;
    std::uint16_t sizeFlits = 0;    ///< 0 = network default length
    std::uint8_t trafficClass = 0;  ///< generator-defined flow class
    bool afterStep = false;  ///< see StreamPacket::afterStep

    bool operator==(const TraceEntry &) const = default;

    /** The request this entry replays (tag carries nothing on replay). */
    PacketRequest
    toRequest() const
    {
        return PacketRequest{src, dst, sizeFlits, trafficClass, 0};
    }

    /** The stream packet this entry replays. */
    StreamPacket toPacket() const { return {when, toRequest(), afterStep}; }
};

/** An ordered packet trace. */
class Trace
{
  public:
    Trace() = default;

    /** Append an entry (ticks must be non-decreasing). */
    void append(const TraceEntry &entry);

    /** Convenience: an entry with the after-step bit clear. */
    void
    append(Tick when, NodeId src, NodeId dst, std::uint16_t sizeFlits = 0,
           std::uint8_t trafficClass = 0)
    {
        append(TraceEntry{when, src, dst, sizeFlits, trafficClass});
    }

    /** Append a stream packet (its tag is not kept). */
    void append(const StreamPacket &packet);

    /** Every packet `cursor` yields, from where it stands. */
    static Trace read(PacketCursor &cursor);

    const std::vector<TraceEntry> &entries() const { return entries_; }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** True when any entry carries an explicit size or class. */
    bool hasExtendedFields() const;

    /**
     * Serialize as CSV: "tick,src,dst" lines, "tick,src,dst,size,class"
     * when extended fields are present, or
     * "tick,src,dst,size,class,after_step" when any after-step bit is.
     */
    std::string toCsv() const;

    /**
     * Parse the CSV form.  Accepts CRLF line endings, a trailing
     * newline, an optional header, and 3-, 5- or 6-column rows (a 6th
     * column is the after-step bit, 0 or 1).
     * @param numNodes when > 0, node ids must lie in [0, numNodes)
     * @throws ConfigError (line-numbered) on malformed rows,
     *         decreasing ticks, out-of-range node ids, or equal src
     *         and dst
     */
    static Trace fromCsv(const std::string &csv, NodeId numNodes = 0);

    /** Write to / read from a CSV file.  @throws ConfigError on I/O
     *  or (load) parse failure. */
    void save(const std::string &path) const;
    static Trace load(const std::string &path, NodeId numNodes = 0);

  private:
    std::vector<TraceEntry> entries_;
};

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

    void
    start(sim::Kernel &kernel, PacketSink sink) override
    {
        kernel_ = &kernel;
        inner_.start(kernel, [this, sink = std::move(sink)](
                                 const PacketRequest &request) {
            trace_.append(StreamPacket{kernel_->now(), request});
            sink(request);
        });
    }

    bool wantsDeliveries() const override
    {
        return inner_.wantsDeliveries();
    }

    void onDelivered(const PacketRequest &request, Tick arrival) override
    {
        inner_.onDelivered(request, arrival);
    }

    const char *name() const override { return "trace-recorder"; }

    const Trace &trace() const { return trace_; }

  private:
    TrafficGenerator &inner_;
    sim::Kernel *kernel_ = nullptr;
    Trace trace_;
};

/**
 * Base of the generators that replay a finished recording (TraceTraffic,
 * workload::BinaryTraceReplay).  A network attaching one pulls its
 * openStream() cursor at each router clock edge, so every packet is
 * created on the side of an edge's step its after-step bit names.
 * start() serves use without a network: it emits each packet at its
 * tick on `kernel`.
 */
class ReplayTraffic : public TrafficGenerator
{
  public:
    void start(sim::Kernel &kernel, PacketSink sink) final;

  private:
    void scheduleNext();

    std::unique_ptr<PacketCursor> cursor_;
    StreamPacket next_;
    sim::Kernel *kernel_ = nullptr;
    PacketSink sink_;
};

/** Replays a trace verbatim. */
class TraceTraffic final : public ReplayTraffic
{
  public:
    /** @param trace trace to replay (copied) */
    explicit TraceTraffic(Trace trace) : trace_(std::move(trace)) {}

    std::unique_ptr<PacketCursor> openStream() override;

    const char *name() const override { return "trace-replay"; }

  private:
    Trace trace_;
};

} // namespace dvsnet::traffic
