/**
 * @file
 * Compact binary packet-trace format (the scale format; CSV remains the
 * human-readable one — see traffic/trace.hpp).
 *
 * Layout (all multi-byte integers little-endian):
 *
 *     offset  size  field
 *     0       4     magic "DVST"
 *     4       2     version (currently 2; 1 is still read)
 *     6       2     flags (reserved, must be 0)
 *     8       4     numNodes (0 = unknown; else ids checked < numNodes)
 *     12      8     entryCount (0 = unknown, read to EOF; writers on
 *                   seekable streams backpatch the real count)
 *     20      ...   entries
 *
 * Each entry is five LEB128 varints (common/varint.hpp): the tick
 * delta from the previous entry (first entry: from 0) shifted left
 * once with the after-step bit (traffic::StreamPacket) in bit 0, src,
 * dst, sizeFlits, trafficClass.  Version 1 files hold the plain delta
 * and load with every after-step bit clear.  Delta-encoding plus
 * varints makes dense traces ~5-7 bytes/entry against 12+ bytes of CSV
 * text, and the format streams: both reader and writer touch O(1)
 * memory regardless of trace length — no mmap, no whole-file
 * buffering.
 *
 * All format violations (bad magic, unknown version or flags,
 * truncated varints, a tick past the 64-bit range — decreasing ticks
 * can't happen by construction, deltas are unsigned) raise ConfigError
 * with the entry index, so a corrupt or foreign file fails fast.  So do
 * entries no network can create: a self-addressed one, or a node id
 * past the header's count or the reading network's.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>

#include "traffic/trace.hpp"

namespace dvsnet::workload
{

/** Parsed binary-trace header. */
struct BinaryTraceHeader
{
    std::uint16_t version = 2;
    std::uint32_t numNodes = 0;   ///< 0 = unknown
    std::uint64_t entryCount = 0; ///< 0 = unknown (stream to EOF)
};

/** File magic, "DVST" in little-endian byte order. */
inline constexpr std::uint32_t kTraceMagic = 0x54535644u;

/** Format version written; readers also accept version 1. */
inline constexpr std::uint16_t kTraceVersion = 2;

/** Conventional file extension for binary traces. */
inline constexpr const char *kTraceExtension = ".dvst";

/**
 * Streaming binary-trace writer.  Appends entries one at a time with
 * O(1) memory; finish() backpatches the header entry count when the
 * stream is seekable (a file), otherwise leaves it 0 ("unknown").
 */
class BinaryTraceWriter
{
  public:
    /**
     * @param out destination stream (caller-owned, must outlive us;
     *        binary mode)
     * @param numNodes recorded into the header; 0 = unknown
     * @throws ConfigError if the header cannot be written
     */
    explicit BinaryTraceWriter(std::ostream &out,
                               std::uint32_t numNodes = 0);

    /** Append one entry; ticks must be non-decreasing.
     *  @throws ConfigError on a decreasing tick, a tick gap of 2^63 or
     *  more, or a write failure */
    void append(const traffic::TraceEntry &entry);

    /** Flush and backpatch the entry count; idempotent.  Must be
     *  called before the stream is closed for the count to land. */
    void finish();

    std::uint64_t written() const { return count_; }

  private:
    std::ostream &out_;
    std::streampos headerPos_;
    Tick lastTick_ = 0;
    std::uint64_t count_ = 0;
    bool finished_ = false;
};

/**
 * Streaming binary-trace reader: header on construction, then one
 * entry per next() call with O(1) memory.
 */
class BinaryTraceReader
{
  public:
    /** @param in source stream (caller-owned, binary mode)
     *  @param numNodes when > 0, node ids must also lie in
     *         [0, numNodes): the network the trace feeds
     *  @throws ConfigError on a bad magic/version/flags header */
    explicit BinaryTraceReader(std::istream &in, NodeId numNodes = 0);

    const BinaryTraceHeader &header() const { return header_; }

    /**
     * Read the next entry into `entry`.  Returns false at end of
     * trace.  @throws ConfigError on truncation, a trailing partial
     * entry, an entry-count mismatch, an out-of-range node id, equal
     * src and dst, or a tick past the 64-bit range.
     */
    bool next(traffic::TraceEntry &entry);

    /** Entries returned so far. */
    std::uint64_t read() const { return count_; }

  private:
    std::istream &in_;
    BinaryTraceHeader header_;
    std::uint64_t nodeLimit_ = 0;  ///< ids must be below; 0 = unchecked
    Tick lastTick_ = 0;
    std::uint64_t count_ = 0;
    bool done_ = false;
};

/** Write a whole trace to a binary file.  @throws ConfigError */
void saveBinaryTrace(const traffic::Trace &trace, const std::string &path,
                     std::uint32_t numNodes = 0);

/** Read a whole binary trace file; `numNodes` as BinaryTraceReader's.
 *  @throws ConfigError */
traffic::Trace loadBinaryTrace(const std::string &path,
                               NodeId numNodes = 0);

/** True when `path` names a binary trace by extension (".dvst"). */
bool isBinaryTracePath(const std::string &path);

/**
 * Load a trace in either format, dispatching on the file extension
 * (".dvst" = binary, anything else = CSV); when `numNodes` > 0, node
 * ids must lie in [0, numNodes).  @throws ConfigError
 */
traffic::Trace loadAnyTrace(const std::string &path, NodeId numNodes = 0);

/**
 * Replays a binary trace file directly from disk: its cursor reads
 * entries as the network pulls them, so memory stays O(1) no matter
 * how long the trace is, which is the point of the binary format.
 * Semantically identical to TraceTraffic over loadBinaryTrace() of the
 * same file.
 */
class BinaryTraceReplay final : public traffic::ReplayTraffic
{
  public:
    /** @param numNodes node count of the network it feeds: ids must
     *         lie in [0, numNodes), whatever the header says
     *  @throws ConfigError when the file cannot be opened or its
     *  header is invalid */
    BinaryTraceReplay(const std::string &path, NodeId numNodes);

    /** A fresh read of the file; its next() throws ConfigError on a bad
     *  entry (BinaryTraceReader::next).  @throws ConfigError as the ctor */
    std::unique_ptr<traffic::PacketCursor> openStream() override;

    const char *name() const override { return "binary-trace-replay"; }

  private:
    std::string path_;
    NodeId numNodes_;
};

} // namespace dvsnet::workload
