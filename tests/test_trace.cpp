/**
 * @file
 * Trace record/replay tests: CSV import and export of packet streams,
 * recorder transparency, and the key property — replaying a recorded
 * workload reproduces the original packet sequence exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "network/network.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/trace.hpp"

using dvsnet::NodeId;
using dvsnet::Tick;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::sim::Kernel;
using dvsnet::traffic::PacketRequest;
using dvsnet::traffic::PacketStream;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;
using dvsnet::traffic::ReplayTraffic;
using dvsnet::traffic::StreamPacket;
using dvsnet::traffic::TraceRecorder;

namespace
{

/** A plain packet: default size, class 0, no tag. */
StreamPacket
packet(Tick when, NodeId src, NodeId dst, std::uint16_t sizeFlits = 0,
       std::uint8_t trafficClass = 0, bool afterStep = false)
{
    return {when, {src, dst, sizeFlits, trafficClass, 0}, afterStep};
}

/** A finished stream of `packets`. */
std::shared_ptr<const PacketStream>
streamOf(const std::vector<StreamPacket> &packets)
{
    auto stream = std::make_shared<PacketStream>();
    for (const auto &p : packets)
        stream->append(p);
    stream->finish();
    return stream;
}

std::vector<StreamPacket>
readAll(const PacketStream &stream)
{
    std::vector<StreamPacket> out;
    const auto cursor = stream.cursor();
    for (StreamPacket p; cursor->next(p);)
        out.push_back(p);
    return out;
}

std::vector<StreamPacket>
fromCsv(const std::string &csv, NodeId numNodes = 0)
{
    std::istringstream in(csv);
    return readAll(*dvsnet::traffic::importCsv(in, numNodes));
}

std::string
toCsv(const std::vector<StreamPacket> &packets)
{
    std::ostringstream out;
    dvsnet::traffic::exportCsv(*streamOf(packets), out);
    return out.str();
}

} // namespace

TEST(Trace, AppendAndAccess)
{
    const std::vector<StreamPacket> packets = {
        packet(100, 1, 2), packet(100, 3, 4), packet(250, 5, 6)};
    const auto stream = streamOf(packets);
    ASSERT_EQ(stream->size(), 3u);
    EXPECT_EQ(readAll(*stream)[2], packet(250, 5, 6));
}

TEST(TraceDeathTest, NonMonotoneTimesRejected)
{
    PacketStream stream;
    stream.append(packet(100, 1, 2));
    EXPECT_DEATH(stream.append(packet(50, 1, 2)), "non-decreasing");
}

TEST(Trace, CsvRoundTrip)
{
    const std::vector<StreamPacket> packets = {
        packet(0, 0, 63), packet(12345, 7, 8), packet(99999999999ull, 63, 0)};
    EXPECT_EQ(fromCsv(toCsv(packets)), packets);
}

TEST(Trace, CsvHeaderOptional)
{
    const auto packets = fromCsv("100,1,2\n200,3,4\n");
    ASSERT_EQ(packets.size(), 2u);
    EXPECT_EQ(packets[0], packet(100, 1, 2));
}

TEST(Trace, FileRoundTrip)
{
    const auto stream = streamOf({packet(500, 2, 3)});
    const std::string path = ::testing::TempDir() + "/dvsnet_trace.csv";
    dvsnet::traffic::saveAnyTrace(*stream, path);
    EXPECT_EQ(readAll(*dvsnet::traffic::loadAnyTrace(path)),
              readAll(*stream));
    std::remove(path.c_str());
}

TEST(Trace, CsvToleratesCrlfAndBlankLines)
{
    const auto packets =
        fromCsv("tick,src,dst\r\n100,1,2\r\n\r\n200,3,4\r\n");
    ASSERT_EQ(packets.size(), 2u);
    EXPECT_EQ(packets[0], packet(100, 1, 2));
    EXPECT_EQ(packets[1], packet(200, 3, 4));
}

TEST(Trace, CsvToleratesMissingTrailingNewline)
{
    const auto packets = fromCsv("100,1,2\n200,3,4");
    ASSERT_EQ(packets.size(), 2u);
    EXPECT_EQ(packets[1], packet(200, 3, 4));
}

TEST(Trace, CsvParsesExtendedFiveFieldRows)
{
    const auto packets = fromCsv("tick,src,dst,size,class\n100,1,2,5,1\n");
    ASSERT_EQ(packets.size(), 1u);
    EXPECT_EQ(packets[0], packet(100, 1, 2, 5, 1));
}

TEST(Trace, CsvAfterStepColumnRoundTrips)
{
    const std::vector<StreamPacket> packets = {
        packet(1000, 1, 2, 0, 0, false), packet(1000, 3, 4, 0, 0, true)};
    const std::string csv = toCsv(packets);
    EXPECT_EQ(csv.rfind("tick,src,dst,size,class,after_step\n", 0), 0u);
    EXPECT_EQ(fromCsv(csv), packets);
    // Without any bit set the 3- and 5-column forms are kept.
    EXPECT_EQ(toCsv(fromCsv("100,1,2,0,0,0\n")), "tick,src,dst\n100,1,2\n");
    // CSV has no tag column; the stream keeps tags, the export drops
    // them.
    const std::vector<StreamPacket> tagged = {{100, {1, 2, 0, 0, 77}}};
    EXPECT_EQ(toCsv(tagged), "tick,src,dst\n100,1,2\n");
}

namespace
{

/** The ConfigError message for a malformed CSV, "" if it parsed. */
std::string
csvError(const std::string &csv, NodeId numNodes = 0)
{
    try {
        fromCsv(csv, numNodes);
        return "";
    } catch (const dvsnet::ConfigError &e) {
        return e.what();
    }
}

} // namespace

TEST(Trace, CsvRejectsDecreasingTicksWithLineNumber)
{
    const std::string what = csvError("tick,src,dst\n200,1,2\n100,3,4\n");
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("decreasing"), std::string::npos) << what;
    // A tick past 64 bits breaks the same rule the `.dvst` reader
    // applies.
    EXPECT_NE(csvError("18446744073709551616,1,2\n")
                  .find("line 1: tick overflows 64 bits"),
              std::string::npos);
    // So does a gap of 2^62 ticks or more, which no stream record holds;
    // the first packet's gap counts from tick 0.
    EXPECT_NE(csvError("4611686018427387904,1,2\n")
                  .find("line 1: tick 4611686018427387904 is 2^62 or more "
                        "after 0"),
              std::string::npos);
    EXPECT_NE(csvError("tick,src,dst\n7,1,2\n5000000000000000000,1,2\n")
                  .find("line 3: tick 5000000000000000000 is 2^62"),
              std::string::npos);
    // One tick less is the largest gap, and loads.
    EXPECT_EQ(csvError("7,1,2\n4611686018427387910,1,2\n"), "");
}

TEST(Trace, CsvRejectsOutOfRangeNodeIdsWithLineNumber)
{
    // dst 16 is out of range on a 16-node network.
    const std::string what = csvError("100,1,16\n", 16);
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;

    // Huge ids overflow NodeId even with no node count given.
    EXPECT_NE(csvError("100,1,99999999999\n").find("overflows"),
              std::string::npos);
}

TEST(Trace, CsvRejectsSelfAddressedPacketsWithLineNumber)
{
    // No network can create a packet addressed to its own source, with
    // or without a node count.
    for (const NodeId numNodes : {0, 64}) {
        const std::string what =
            csvError("tick,src,dst\n500,1,2\n1000,3,3\n", numNodes);
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("src and dst are both 3"), std::string::npos)
            << what;
    }
}

TEST(Trace, CsvRejectsMalformedRows)
{
    EXPECT_NE(csvError("100,1\n").find("expected 3 or 5 fields"),
              std::string::npos);
    EXPECT_NE(csvError("100,1,2,3\n").find("expected 3 or 5 fields"),
              std::string::npos);
    EXPECT_NE(csvError("100,1,2,3,4,1,0\n").find("too many fields"),
              std::string::npos);
    EXPECT_NE(csvError("100,1,2,3,4,5\n").find("after_step must be 0 or 1"),
              std::string::npos);
    EXPECT_NE(csvError("abc,1,2\n").find("bad field 1"),
              std::string::npos);
    EXPECT_NE(csvError("100, 1,2\n").find("bad field"),
              std::string::npos);  // no whitespace tolerance
    EXPECT_NE(csvError("100,-1,2\n").find("bad field"),
              std::string::npos);  // no signs
    EXPECT_NE(csvError("100,1,2,70000,0\n").find("size overflows 16 bits"),
              std::string::npos);
    EXPECT_NE(csvError("100,1,2,1,256\n").find("class overflows 8 bits"),
              std::string::npos);
}

TEST(TraceRecorder, PassesTrafficThroughWhileRecording)
{
    dvsnet::topo::KAryNCube topo(4, 2, false);
    Kernel kernel;
    PatternTraffic inner(topo, Pattern::UniformRandom, 0.01, 5);
    TraceRecorder recorder(inner);

    std::size_t delivered = 0;
    recorder.start(kernel, [&](const PacketRequest &) { ++delivered; });
    kernel.run(dvsnet::cyclesToTicks(20000));

    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(recorder.finish()->size(), delivered);
}

TEST(TraceReplay, ReproducesRecordedSequenceExactly)
{
    dvsnet::topo::KAryNCube topo(4, 2, false);

    // Record a run.
    std::shared_ptr<const PacketStream> recorded;
    {
        Kernel kernel;
        PatternTraffic inner(topo, Pattern::UniformRandom, 0.01, 7);
        TraceRecorder recorder(inner);
        recorder.start(kernel, [](const PacketRequest &) {});
        kernel.run(dvsnet::cyclesToTicks(20000));
        recorded = recorder.finish();
    }
    ASSERT_GT(recorded->size(), 100u);

    // Replay and capture.
    std::vector<StreamPacket> replayed;
    {
        Kernel kernel;
        ReplayTraffic replay(recorded);
        replay.start(kernel, [&](const PacketRequest &r) {
            replayed.push_back({kernel.now(), r});
        });
        kernel.run();
    }
    EXPECT_EQ(replayed, readAll(*recorded));
}

TEST(TraceReplay, DrivesANetwork)
{
    // A small deterministic workload: node i sends to i+1 every 100
    // cycles.
    std::vector<StreamPacket> packets;
    for (int k = 0; k < 50; ++k) {
        packets.push_back(packet(
            dvsnet::cyclesToTicks(static_cast<dvsnet::Cycle>(100 * (k + 1))),
            static_cast<NodeId>(k % 15), static_cast<NodeId>(k % 15 + 1)));
    }

    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    Network net(cfg);
    ReplayTraffic replay(streamOf(packets));
    net.attachTraffic(replay);
    net.run(100, 10000);
    EXPECT_EQ(net.metrics().packetsEjected(), 50u);
}

TEST(TraceReplay, EmptyTraceIsANoOp)
{
    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    Network net(cfg);
    ReplayTraffic replay(streamOf({}));
    net.attachTraffic(replay);
    net.run(100, 2000);
    EXPECT_EQ(net.metrics().packetsEjected(), 0u);
}
