/**
 * @file
 * Trace record/replay tests: CSV round-trips, recorder transparency,
 * and the key property — replaying a recorded workload reproduces the
 * original packet sequence exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "network/network.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/trace.hpp"

using dvsnet::NodeId;
using dvsnet::Tick;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;
using dvsnet::sim::Kernel;
using dvsnet::traffic::Pattern;
using dvsnet::traffic::PatternTraffic;
using dvsnet::traffic::Trace;
using dvsnet::traffic::TraceEntry;
using dvsnet::traffic::TraceRecorder;
using dvsnet::traffic::TraceTraffic;

TEST(Trace, AppendAndAccess)
{
    Trace t;
    t.append(100, 1, 2);
    t.append(100, 3, 4);
    t.append(250, 5, 6);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.entries()[2], (TraceEntry{250, 5, 6}));
}

TEST(TraceDeathTest, NonMonotoneTimesRejected)
{
    Trace t;
    t.append(100, 1, 2);
    EXPECT_DEATH(t.append(50, 1, 2), "non-decreasing");
}

TEST(Trace, CsvRoundTrip)
{
    Trace t;
    t.append(0, 0, 63);
    t.append(12345, 7, 8);
    t.append(99999999999ull, 63, 0);
    const Trace back = Trace::fromCsv(t.toCsv());
    EXPECT_EQ(back.entries(), t.entries());
}

TEST(Trace, CsvHeaderOptional)
{
    const Trace t = Trace::fromCsv("100,1,2\n200,3,4\n");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.entries()[0], (TraceEntry{100, 1, 2}));
}

TEST(Trace, FileRoundTrip)
{
    Trace t;
    t.append(500, 2, 3);
    const std::string path = ::testing::TempDir() + "/dvsnet_trace.csv";
    t.save(path);
    const Trace back = Trace::load(path);
    EXPECT_EQ(back.entries(), t.entries());
    std::remove(path.c_str());
}

TEST(Trace, CsvToleratesCrlfAndBlankLines)
{
    const Trace t = Trace::fromCsv(
        "tick,src,dst\r\n100,1,2\r\n\r\n200,3,4\r\n");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.entries()[0], (TraceEntry{100, 1, 2}));
    EXPECT_EQ(t.entries()[1], (TraceEntry{200, 3, 4}));
}

TEST(Trace, CsvToleratesMissingTrailingNewline)
{
    const Trace t = Trace::fromCsv("100,1,2\n200,3,4");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.entries()[1], (TraceEntry{200, 3, 4}));
}

TEST(Trace, CsvParsesExtendedFiveFieldRows)
{
    const Trace t =
        Trace::fromCsv("tick,src,dst,size,class\n100,1,2,5,1\n");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.entries()[0], (TraceEntry{100, 1, 2, 5, 1}));
}

TEST(Trace, CsvAfterStepColumnRoundTrips)
{
    Trace t;
    t.append(TraceEntry{1000, 1, 2, 0, 0, false});
    t.append(TraceEntry{1000, 3, 4, 0, 0, true});
    const std::string csv = t.toCsv();
    EXPECT_EQ(csv.rfind("tick,src,dst,size,class,after_step\n", 0), 0u);
    EXPECT_EQ(Trace::fromCsv(csv).entries(), t.entries());
    // Without any bit set the 3- and 5-column forms are kept.
    EXPECT_EQ(Trace::fromCsv("100,1,2,0,0,0\n").toCsv(),
              "tick,src,dst\n100,1,2\n");
}

namespace
{

/** The ConfigError message for a malformed CSV, "" if it parsed. */
std::string
csvError(const std::string &csv, NodeId numNodes = 0)
{
    try {
        Trace::fromCsv(csv, numNodes);
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
}

TEST(TraceRecorder, PassesTrafficThroughWhileRecording)
{
    dvsnet::topo::KAryNCube topo(4, 2, false);
    Kernel kernel;
    PatternTraffic inner(topo, Pattern::UniformRandom, 0.01, 5);
    TraceRecorder recorder(inner);

    std::size_t delivered = 0;
    recorder.start(kernel,
                   [&](const dvsnet::traffic::PacketRequest &) {
                       ++delivered;
                   });
    kernel.run(dvsnet::cyclesToTicks(20000));

    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(recorder.trace().size(), delivered);
}

TEST(TraceReplay, ReproducesRecordedSequenceExactly)
{
    dvsnet::topo::KAryNCube topo(4, 2, false);

    // Record a run.
    Trace recorded;
    {
        Kernel kernel;
        PatternTraffic inner(topo, Pattern::UniformRandom, 0.01, 7);
        TraceRecorder recorder(inner);
        recorder.start(kernel, [](const dvsnet::traffic::PacketRequest &) {});
        kernel.run(dvsnet::cyclesToTicks(20000));
        recorded = recorder.trace();
    }
    ASSERT_GT(recorded.size(), 100u);

    // Replay and capture.
    std::vector<TraceEntry> replayed;
    {
        Kernel kernel;
        TraceTraffic replay(recorded);
        replay.start(kernel, [&](const dvsnet::traffic::PacketRequest &r) {
            replayed.push_back({kernel.now(), r.src, r.dst});
        });
        kernel.run();
    }
    EXPECT_EQ(replayed, recorded.entries());
}

TEST(TraceReplay, DrivesANetwork)
{
    Trace t;
    // A small deterministic workload: node i sends to i+1 every 100
    // cycles.
    for (int k = 0; k < 50; ++k)
        t.append(dvsnet::cyclesToTicks(static_cast<dvsnet::Cycle>(
                     100 * (k + 1))),
                 static_cast<NodeId>(k % 15), static_cast<NodeId>(k % 15 + 1));

    NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = PolicyKind::None;
    Network net(cfg);
    TraceTraffic replay(t);
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
    TraceTraffic replay{Trace{}};
    net.attachTraffic(replay);
    net.run(100, 2000);
    EXPECT_EQ(net.metrics().packetsEjected(), 0u);
}
