/**
 * @file
 * Packet streams: the one form of a recorded packet sequence, in memory
 * and in a `.dvst` file.
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
 * is ~4 bytes per packet on the paper's 8x8 mesh.
 *
 * Sharing: a stream can be read while it records.  Its records fill
 * fixed-size blocks that never move, no record straddles two blocks, and
 * one atomic word publishes how many packets are readable and whether
 * the recording has ended.  The recorder publishes every
 * kPublishEvery packets and when it ends, and never waits for a reader;
 * a cursor on another thread reads up to the published count without a
 * lock.  A cursor at the published end of an unfinished stream blocks
 * until the recorder publishes more (it reads on), finishes (it returns
 * end of stream) or fails (it throws the recorder's error).
 *
 * Files: a `.dvst` file (version 3) is a 20-byte header, then the
 * stream's blocks as they lie in memory.  Header fields are
 * little-endian:
 *
 *     offset  size  field
 *     0       4     magic "DVST"
 *     4       2     version (3; older versions are refused)
 *     6       2     flags (reserved, must be 0)
 *     8       4     numNodes (0 = unknown; else ids checked < numNodes)
 *     12      8     packet count
 *
 * Every block but the last is written whole, its unused tail zeroed;
 * the last ends with its last record.  The same stream always gives the
 * same bytes.  DvstCursor reads a file back one block at a time, so
 * replaying one holds O(1) memory, and decodes it with the in-memory
 * cursor's record code, checked: file bytes are input from outside.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "traffic/traffic.hpp"

namespace dvsnet::traffic
{

/** A compact, append-only sequence of StreamPackets (see file comment). */
class PacketStream
{
  public:
    /** Bytes per storage block. */
    static constexpr std::size_t kBlockBytes = 64 * 1024;

    /** Packets between two publications while recording. */
    static constexpr std::size_t kPublishEvery = 256;

    /** An empty stream covering ticks up to `horizon`, open to append(). */
    explicit PacketStream(Tick horizon = kTickNever);
    ~PacketStream();

    PacketStream(const PacketStream &) = delete;
    PacketStream &operator=(const PacketStream &) = delete;

    /**
     * A finished recording of every packet `generator` creates at a
     * tick <= `horizon` (see recordFrom()).
     */
    static std::unique_ptr<const PacketStream>
    record(TrafficGenerator &generator, Tick horizon);

    /**
     * Record into this empty stream every packet `generator` creates at
     * a tick <= horizon(), then finish().  A live generator runs alone on
     * a bare sim::Kernel and is spent afterwards; a replaying one
     * (openStream()) is copied with its after-step bits.  `started`, if
     * set, runs once the generator has started: from then on cursors on
     * other threads may read the stream as it records.  On an exception
     * the stream fails with it, so its cursors throw it too, and the
     * exception propagates.  @pre !generator.wantsDeliveries():
     * closed-loop traffic depends on the network and must run live.
     */
    void recordFrom(TrafficGenerator &generator,
                    const std::function<void()> &started = {});

    /**
     * Append one packet; ticks must be non-decreasing.  Cursors read it
     * once it is published: with every kPublishEvery-th packet, or at
     * finish().
     */
    void append(const StreamPacket &packet);

    /**
     * End the stream: publish every packet appended, after which a
     * cursor at the end returns false.  A stream built by hand must be
     * finished before a cursor reads to its end.
     */
    void finish();

    /** Packets appended. */
    std::size_t size() const { return size_; }

    /** Encoded size in bytes. */
    std::size_t bytes() const { return bytes_; }

    /** Last tick the stream covers (kTickNever: complete). */
    Tick horizon() const { return horizon_; }

    /** A cursor from the first packet; the stream must outlive it. */
    std::unique_ptr<PacketCursor> cursor() const;

    /**
     * Write this finished stream to `path` as a `.dvst` file with
     * `numNodes` in its header.  @throws ConfigError on an I/O failure
     */
    void save(const std::string &path, std::uint32_t numNodes) const;

  private:
    struct Block;
    class Cursor;

    enum State : std::uint64_t
    {
        kRecording = 0,
        kFinished = 1,
        kFailed = 2,
    };

    /** Publish size() packets and `state` to cursors, and wake them. */
    void publish(State state);

    /** Neither finished nor failed yet; the recorder's view. */
    bool recording() const;

    /**
     * Block until more than `read` packets are published or the stream
     * ends, then return the published count: `read` means the end of a
     * finished stream.  @throws the recorder's error at the end of a
     * failed one.
     */
    std::size_t await(std::size_t read) const;

    std::unique_ptr<Block> head_;
    Block *tail_;           ///< the block append() writes
    unsigned char *pos_;    ///< next free byte in *tail_
    std::size_t size_ = 0;
    std::size_t bytes_ = 0;
    Tick last_ = 0;  ///< tick of the last packet appended
    Tick horizon_;
    /** Published packets << 2 | State. */
    std::atomic<std::uint64_t> frontier_{0};
    std::exception_ptr error_;  ///< set before kFailed is published
};

/** A packet's fields as an importer reads them, before narrowing. */
struct RawPacket
{
    std::optional<Tick> when;  ///< nullopt: past the 64-bit range
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t sizeFlits = 0;
    std::uint64_t trafficClass = 0;
    std::uint64_t tag = 0;
    bool afterStep = false;

    /** The request, narrowed: every decoder's one narrowing.  @pre
     *  packetProblem() finds none, or append() wrote the fields. */
    PacketRequest
    request() const
    {
        return {static_cast<NodeId>(src), static_cast<NodeId>(dst),
                static_cast<std::uint16_t>(sizeFlits),
                static_cast<std::uint8_t>(trafficClass), tag};
    }

    /** The packet, narrowed.  @pre packetProblem() finds none. */
    StreamPacket packet() const { return {*when, request(), afterStep}; }
};

/**
 * The packet-validity rules every import (CSV or `.dvst`) applies: a
 * tick within 64 bits, not before `previous`, the tick of the packet
 * before (0 for the first), and less than 2^62 after it, the largest
 * gap a record holds; src and dst below `nodeLimit` (0: unknown, so only
 * within NodeId) and distinct; size within 16 bits and class within 8.
 * Returns "" when a network can create `raw`, else the rule it breaks;
 * the importer adds the line or entry.
 */
std::string packetProblem(const RawPacket &raw, Tick previous,
                          std::uint64_t nodeLimit);

/**
 * Reads a `.dvst` file as the network pulls it, one block at a time.
 * Every packet passes packetProblem() against the smaller of the
 * header's node count and `numNodes`, the node count of the network it
 * feeds (0 for either: unknown).
 */
class DvstCursor final : public PacketCursor
{
  public:
    /** The version written and the only one read. */
    static constexpr std::uint16_t kVersion = 3;

    /**
     * @throws ConfigError when the file cannot be opened or its header
     * is bad: short, wrong magic, a version other than 3, nonzero flags
     */
    explicit DvstCursor(const std::string &path, NodeId numNodes = 0);

    /**
     * @throws ConfigError naming the entry on a bad varint, a record
     * past the end of the file, a packet packetProblem() rejects, or a
     * file that holds fewer or more packets than its header declares
     */
    bool next(StreamPacket &out) override;

    Tick horizon() const override { return kTickNever; }

    /** The header's node count (0 = unknown). */
    std::uint32_t headerNodes() const { return headerNodes_; }

  private:
    /** Read the next block of the file. */
    void refill();

    std::ifstream file_;
    std::unique_ptr<unsigned char[]> block_;
    const unsigned char *pos_ = nullptr;  ///< next record in block_
    const unsigned char *end_ = nullptr;  ///< end of the bytes read
    std::uint32_t headerNodes_ = 0;
    std::uint64_t declared_ = 0;
    std::uint64_t nodeLimit_ = 0;  ///< ids must be below; 0 = unchecked
    std::uint64_t read_ = 0;       ///< packets returned
    Tick tick_ = 0;
};

} // namespace dvsnet::traffic
