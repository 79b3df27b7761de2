/**
 * @file
 * Binary (.dvst) trace format tests: round trips against the in-memory
 * and CSV representations (including a randomized property test),
 * header/format-violation rejection, and lockstep equivalence of the
 * streaming BinaryTraceReplay generator with the CSV replay path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "common/varint.hpp"
#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "sim/kernel.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"
#include "workload/trace_binary.hpp"

using dvsnet::ConfigError;
using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::sim::Kernel;
using dvsnet::traffic::Trace;
using dvsnet::traffic::TraceEntry;
using dvsnet::traffic::TraceTraffic;
using dvsnet::workload::BinaryTraceReader;
using dvsnet::workload::BinaryTraceReplay;
using dvsnet::workload::BinaryTraceWriter;
using dvsnet::workload::loadAnyTrace;
using dvsnet::workload::loadBinaryTrace;
using dvsnet::workload::saveBinaryTrace;

namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

/** Serialize a trace to an in-memory binary stream. */
std::string
toBinary(const Trace &trace, std::uint32_t numNodes = 0)
{
    std::ostringstream out(std::ios::binary);
    BinaryTraceWriter writer(out, numNodes);
    for (const auto &entry : trace.entries())
        writer.append(entry);
    writer.finish();
    return out.str();
}

/** Deserialize an in-memory binary stream back to a trace. */
Trace
fromBinary(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    BinaryTraceReader reader(in);
    Trace trace;
    TraceEntry entry;
    while (reader.next(entry))
        trace.append(entry);
    return trace;
}

/** A version-1 file: the plain tick delta, no after-step bit. */
std::string
versionOneBytes(const std::vector<TraceEntry> &entries)
{
    std::string bytes = "DVST";
    const unsigned char fixed[] = {1, 0,  0, 0,  0, 0, 0, 0,
                                   static_cast<unsigned char>(entries.size()),
                                   0, 0, 0, 0, 0, 0, 0};
    bytes.append(reinterpret_cast<const char *>(fixed), sizeof fixed);
    Tick last = 0;
    for (const auto &e : entries) {
        unsigned char buf[5 * dvsnet::kMaxVarintBytes];
        std::size_t n = dvsnet::putVarint(buf, e.when - last);
        n += dvsnet::putVarint(buf + n, static_cast<std::uint64_t>(e.src));
        n += dvsnet::putVarint(buf + n, static_cast<std::uint64_t>(e.dst));
        n += dvsnet::putVarint(buf + n, e.sizeFlits);
        n += dvsnet::putVarint(buf + n, e.trafficClass);
        bytes.append(reinterpret_cast<const char *>(buf), n);
        last = e.when;
    }
    return bytes;
}

} // namespace

TEST(BinaryTrace, RoundTripBasic)
{
    Trace t;
    t.append(0, 0, 63);
    t.append(12345, 7, 8, 5, 1);
    t.append(12345, 8, 7);            // equal ticks allowed
    t.append(99999999999ull, 63, 0);  // large tick delta
    EXPECT_EQ(fromBinary(toBinary(t)).entries(), t.entries());
}

TEST(BinaryTrace, RoundTripEmpty)
{
    const std::string bytes = toBinary(Trace{});
    EXPECT_EQ(fromBinary(bytes).size(), 0u);
}

TEST(BinaryTrace, RandomTracesRoundTripAndMatchCsvPath)
{
    Rng rng(20260808);
    for (int round = 0; round < 20; ++round) {
        Trace t;
        Tick when = rng.uniformInt(1000);
        const std::size_t entries = 1 + rng.uniformInt(200);
        for (std::size_t k = 0; k < entries; ++k) {
            when += rng.uniformInt(5000);  // non-decreasing, often equal
            // Readers reject self-addressed entries: dst differs from src.
            const auto src = static_cast<NodeId>(rng.uniformInt(64));
            const auto dst =
                static_cast<NodeId>((src + 1 + rng.uniformInt(63)) % 64);
            t.append(when, src, dst,
                     static_cast<std::uint16_t>(rng.uniformInt(32)),
                     static_cast<std::uint8_t>(rng.uniformInt(4)));
        }
        // Binary round trip == original == CSV round trip.
        EXPECT_EQ(fromBinary(toBinary(t)).entries(), t.entries());
        EXPECT_EQ(Trace::fromCsv(t.toCsv()).entries(), t.entries());
    }
}

TEST(BinaryTrace, HeaderCarriesNodeCountAndEntryCount)
{
    Trace t;
    t.append(100, 1, 2);
    t.append(200, 3, 0);
    const std::string bytes = toBinary(t, 16);

    std::istringstream in(bytes, std::ios::binary);
    BinaryTraceReader reader(in);
    EXPECT_EQ(reader.header().version, 2u);
    EXPECT_EQ(reader.header().numNodes, 16u);
    EXPECT_EQ(reader.header().entryCount, 2u);  // backpatched
}

TEST(BinaryTrace, AfterStepBitRoundTrips)
{
    Trace t;
    t.append(TraceEntry{1000, 1, 2, 0, 0, false});
    t.append(TraceEntry{1000, 3, 4, 5, 1, true});
    t.append(TraceEntry{2000, 4, 3, 0, 0, true});
    t.append(TraceEntry{2500, 2, 1});
    EXPECT_EQ(fromBinary(toBinary(t)).entries(), t.entries());
    // And so does the CSV form, in its sixth column.
    EXPECT_EQ(Trace::fromCsv(t.toCsv()).entries(), t.entries());
}

TEST(BinaryTrace, VersionOneLoadsWithTheBitClear)
{
    const std::vector<TraceEntry> entries = {
        {1000, 1, 2}, {1001, 2, 3, 5, 1}, {3000, 3, 1}};
    std::istringstream in(versionOneBytes(entries), std::ios::binary);
    BinaryTraceReader reader(in);
    EXPECT_EQ(reader.header().version, 1u);
    std::vector<TraceEntry> back;
    for (TraceEntry e; reader.next(e);)
        back.push_back(e);
    EXPECT_EQ(back, entries);
}

TEST(BinaryTrace, RejectsUnknownFlags)
{
    Trace t;
    t.append(1, 0, 1);
    std::string bytes = toBinary(t);
    bytes[6] = 1;  // flags field, little-endian low byte
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(BinaryTraceReader reader(in), ConfigError);
}

TEST(BinaryTrace, RejectsTicksPastTheRange)
{
    // Two deltas of 2^63 each overflow 64 bits on the second entry.
    std::string bytes = versionOneBytes({{Tick{1} << 63, 0, 1}});
    bytes[12] = 2;  // entry count
    unsigned char buf[5 * dvsnet::kMaxVarintBytes];
    std::size_t n = dvsnet::putVarint(buf, Tick{1} << 63);
    for (int f = 0; f < 4; ++f)
        n += dvsnet::putVarint(buf + n, 1);
    bytes.append(reinterpret_cast<const char *>(buf), n);
    std::istringstream in(bytes, std::ios::binary);
    BinaryTraceReader reader(in);
    TraceEntry entry;
    EXPECT_TRUE(reader.next(entry));
    EXPECT_THROW(reader.next(entry), ConfigError);
}

TEST(BinaryTrace, WriterRejectsDecreasingTicks)
{
    std::ostringstream out(std::ios::binary);
    BinaryTraceWriter writer(out);
    writer.append({100, 1, 2});
    EXPECT_THROW(writer.append({50, 1, 2}), ConfigError);
}

TEST(BinaryTrace, RejectsBadMagic)
{
    std::istringstream in("this is not a dvst file at all....",
                          std::ios::binary);
    EXPECT_THROW(BinaryTraceReader reader(in), ConfigError);
}

TEST(BinaryTrace, RejectsUnsupportedVersion)
{
    Trace t;
    t.append(1, 0, 1);
    std::string bytes = toBinary(t);
    bytes[4] = 99;  // version field, little-endian low byte
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(BinaryTraceReader reader(in), ConfigError);
}

TEST(BinaryTrace, RejectsTruncatedFile)
{
    Trace t;
    t.append(1000, 3, 4, 7, 2);
    t.append(2000, 4, 3, 7, 2);
    const std::string bytes = toBinary(t);
    // Chop mid-entry: header survives, next() must report truncation.
    std::istringstream in(bytes.substr(0, bytes.size() - 2),
                          std::ios::binary);
    BinaryTraceReader reader(in);
    TraceEntry entry;
    EXPECT_THROW({
        while (reader.next(entry)) {
        }
    }, ConfigError);
}

TEST(BinaryTrace, RejectsOutOfRangeNodeIdAgainstHeader)
{
    Trace t;
    t.append(10, 9, 1);  // src 9 out of range for a 4-node header
    const std::string bytes = toBinary(t, 4);
    std::istringstream in(bytes, std::ios::binary);
    BinaryTraceReader reader(in);
    TraceEntry entry;
    EXPECT_THROW(reader.next(entry), ConfigError);
}

TEST(BinaryTrace, FileRoundTripAndExtensionDispatch)
{
    Trace t;
    t.append(500, 2, 3, 9, 1);
    t.append(700, 3, 2);
    const std::string path = tempPath("dvsnet_trace_test.dvst");
    saveBinaryTrace(t, path, 16);
    EXPECT_EQ(loadBinaryTrace(path).entries(), t.entries());
    // loadAnyTrace dispatches on the extension.
    EXPECT_EQ(loadAnyTrace(path).entries(), t.entries());
    std::remove(path.c_str());
}

TEST(BinaryTraceReplay, LockstepMatchesCsvReplay)
{
    // A trace exercising equal ticks, size/class mix, and bursts.
    Trace t;
    Rng rng(7);
    Tick when = 0;
    for (int k = 0; k < 300; ++k) {
        when += rng.uniformInt(3) * 500;
        // Readers reject self-addressed entries: dst differs from src.
        const auto src = static_cast<NodeId>(rng.uniformInt(16));
        const auto dst =
            static_cast<NodeId>((src + 1 + rng.uniformInt(15)) % 16);
        t.append(when, src, dst,
                 static_cast<std::uint16_t>(1 + rng.uniformInt(8)),
                 static_cast<std::uint8_t>(rng.uniformInt(2)));
    }
    const std::string path = tempPath("dvsnet_replay_test.dvst");
    saveBinaryTrace(t, path, 16);

    // Capture both replays as full (tick, request) streams.
    using Event = std::pair<Tick, dvsnet::traffic::PacketRequest>;
    const auto capture = [](dvsnet::traffic::TrafficGenerator &gen) {
        std::vector<Event> events;
        Kernel kernel;
        gen.start(kernel,
                  [&](const dvsnet::traffic::PacketRequest &request) {
                      events.emplace_back(kernel.now(), request);
                  });
        kernel.run();
        return events;
    };

    TraceTraffic csvReplay(Trace::fromCsv(t.toCsv()));
    BinaryTraceReplay binaryReplay(path, 16);
    const auto fromCsvPath = capture(csvReplay);
    const auto fromBinaryPath = capture(binaryReplay);
    std::remove(path.c_str());

    ASSERT_EQ(fromCsvPath.size(), t.size());
    EXPECT_EQ(fromCsvPath, fromBinaryPath);
    for (std::size_t k = 0; k < fromCsvPath.size(); ++k) {
        EXPECT_EQ(fromCsvPath[k].first, t.entries()[k].when);
        EXPECT_EQ(fromCsvPath[k].second, t.entries()[k].toRequest());
    }
}

TEST(BinaryTraceReplay, MissingFileThrows)
{
    EXPECT_THROW(BinaryTraceReplay replay("/nonexistent/nope.dvst", 16),
                 ConfigError);
}

namespace
{

/**
 * The ConfigError messages the three ways from a trace file into an 8x8
 * mesh give for the file at `path`: a live network attaching its
 * replay, the recording exp::runPoint copies into a packet stream, and
 * loadAnyTrace with the mesh's node count.  "" where nothing threw.
 */
std::vector<std::string>
meshErrors(const std::string &path)
{
    dvsnet::network::ExperimentSpec spec;
    spec.network.radix = 8;
    spec.network.policy = dvsnet::network::PolicyKind::None;
    spec.workloadSpec = "trace:path=" + path;
    spec.warmup = 1000;
    spec.measure = 1000;

    std::vector<std::string> errors;
    const auto attempt = [&errors](const std::function<void()> &body) {
        try {
            body();
            errors.emplace_back();
        } catch (const ConfigError &e) {
            errors.emplace_back(e.what());
        }
    };
    attempt([&] {
        dvsnet::network::Network net(spec.network);
        const auto replay = dvsnet::workload::buildWorkload(
            spec.workloadSpec,
            dvsnet::workload::WorkloadContext{net.topology(), 1.0, 1,
                                              spec.workload});
        net.attachTraffic(*replay);
        net.run(spec.warmup, spec.measure);
    });
    attempt([&] { dvsnet::exp::runPoint(spec, 1.0, 1); });
    attempt([&] { loadAnyTrace(path, 64); });
    return errors;
}

/**
 * Save `trace` with `headerNodes`; expect `message` from every path.
 * The file is named after the running test, since ctest runs tests in
 * parallel processes.
 */
void
expectMeshRejects(const Trace &trace, std::uint32_t headerNodes,
                  const std::string &message)
{
    const std::string path =
        ::testing::TempDir() + "/dvsnet_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".dvst";
    saveBinaryTrace(trace, path, headerNodes);
    const auto errors = meshErrors(path);
    std::remove(path.c_str());
    const char *const paths[] = {"live attach", "runPoint", "loadAnyTrace"};
    ASSERT_EQ(errors.size(), std::size(paths));
    for (std::size_t i = 0; i < errors.size(); ++i) {
        EXPECT_NE(errors[i].find(message), std::string::npos)
            << paths[i] << ", header count " << headerNodes << ": '"
            << errors[i] << "'";
    }
}

} // namespace

TEST(BinaryTraceReplay, RejectsIdsPastTheMeshWhenTheHeaderCountIsUnknown)
{
    Trace t;
    t.append(500, 1, 2);
    t.append(1000, 100, 3);
    expectMeshRejects(t, 0, "entry 1: src id 100 out of range [0, 64)");
}

TEST(BinaryTraceReplay, RejectsIdsPastTheMeshUnderALargerHeaderCount)
{
    Trace t;
    t.append(500, 1, 2);
    t.append(1000, 3, 100);
    expectMeshRejects(t, 256, "entry 1: dst id 100 out of range [0, 64)");
}

TEST(BinaryTraceReplay, RejectsSelfAddressedEntries)
{
    Trace t;
    t.append(500, 1, 2);
    t.append(1000, 3, 3);
    expectMeshRejects(t, 64, "entry 1: src and dst are both 3");
}
