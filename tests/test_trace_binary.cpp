/**
 * @file
 * `.dvst` (version 3) trace files: round trips against the in-memory
 * and CSV forms (including a randomized property test), byte-identical
 * files for the same stream, header and record rejection, and lockstep
 * equivalence of a file replayed from disk with the same trace replayed
 * from CSV.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "network/network.hpp"
#include "sim/kernel.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"

using dvsnet::ConfigError;
using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::sim::Kernel;
using dvsnet::traffic::DvstCursor;
using dvsnet::traffic::loadAnyTrace;
using dvsnet::traffic::PacketStream;
using dvsnet::traffic::ReplayTraffic;
using dvsnet::traffic::StreamPacket;

namespace
{

/** A path under the test temp dir, named after the running test. */
std::string
tempPath(const char *suffix)
{
    return ::testing::TempDir() + "/dvsnet_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
}

StreamPacket
packet(Tick when, NodeId src, NodeId dst, std::uint16_t sizeFlits = 0,
       std::uint8_t trafficClass = 0, bool afterStep = false)
{
    return {when, {src, dst, sizeFlits, trafficClass, 0}, afterStep};
}

std::unique_ptr<PacketStream>
streamOf(const std::vector<StreamPacket> &packets)
{
    auto stream = std::make_unique<PacketStream>();
    for (const auto &p : packets)
        stream->append(p);
    stream->finish();
    return stream;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary) << bytes;
}

/** The `.dvst` bytes of `packets`. */
std::string
toBinary(const std::vector<StreamPacket> &packets,
         std::uint32_t numNodes = 0)
{
    const std::string path = tempPath(".out.dvst");
    streamOf(packets)->save(path, numNodes);
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

/** Every packet a DvstCursor reads from `bytes`. */
std::vector<StreamPacket>
fromBinary(const std::string &bytes, NodeId numNodes = 0)
{
    const std::string path = tempPath(".in.dvst");
    writeFile(path, bytes);
    std::vector<StreamPacket> packets;
    try {
        DvstCursor cursor(path, numNodes);
        for (StreamPacket p; cursor.next(p);)
            packets.push_back(p);
    } catch (...) {
        std::remove(path.c_str());
        throw;
    }
    std::remove(path.c_str());
    return packets;
}

std::vector<StreamPacket>
csvRoundTrip(const std::vector<StreamPacket> &packets)
{
    std::ostringstream out;
    dvsnet::traffic::exportCsv(*streamOf(packets), out);
    std::istringstream in(out.str());
    const auto stream = dvsnet::traffic::importCsv(in);
    std::vector<StreamPacket> back;
    const auto cursor = stream->cursor();
    for (StreamPacket p; cursor->next(p);)
        back.push_back(p);
    return back;
}

/** The ConfigError message reading `bytes` gives, "" if none. */
std::string
binaryError(const std::string &bytes, NodeId numNodes = 0)
{
    try {
        fromBinary(bytes, numNodes);
        return "";
    } catch (const ConfigError &e) {
        return e.what();
    }
}

/** `bytes` with the little-endian header field at `offset` set. */
std::string
withField(std::string bytes, std::size_t offset, std::uint64_t value,
          int width)
{
    for (int i = 0; i < width; ++i)
        bytes[offset + i] = static_cast<char>(value >> (8 * i));
    return bytes;
}

} // namespace

TEST(BinaryTrace, RoundTripBasic)
{
    const std::vector<StreamPacket> packets = {
        packet(0, 0, 63), packet(12345, 7, 8, 5, 1),
        packet(12345, 8, 7),            // equal ticks allowed
        packet(99999999999ull, 63, 0),  // large tick delta
        {99999999999ull, {1, 2, 0, 0, 0xfedcba9876543210ull}}};  // a tag
    EXPECT_EQ(fromBinary(toBinary(packets)), packets);
}

TEST(BinaryTrace, RoundTripEmpty)
{
    const std::string bytes = toBinary({});
    EXPECT_EQ(bytes.size(), 20u);  // the header alone
    EXPECT_TRUE(fromBinary(bytes).empty());
}

TEST(BinaryTrace, RandomTracesRoundTripAndMatchCsvPath)
{
    Rng rng(20260808);
    for (int round = 0; round < 20; ++round) {
        std::vector<StreamPacket> packets;
        Tick when = rng.uniformInt(1000);
        const std::size_t entries = 1 + rng.uniformInt(200);
        for (std::size_t k = 0; k < entries; ++k) {
            when += rng.uniformInt(5000);  // non-decreasing, often equal
            // Readers reject self-addressed entries: dst differs from src.
            const auto src = static_cast<NodeId>(rng.uniformInt(64));
            const auto dst =
                static_cast<NodeId>((src + 1 + rng.uniformInt(63)) % 64);
            packets.push_back(
                packet(when, src, dst,
                       static_cast<std::uint16_t>(rng.uniformInt(32)),
                       static_cast<std::uint8_t>(rng.uniformInt(4)),
                       rng.bernoulli(0.2)));
        }
        // Binary round trip == original == CSV round trip.
        EXPECT_EQ(fromBinary(toBinary(packets)), packets);
        EXPECT_EQ(csvRoundTrip(packets), packets);
    }
}

TEST(BinaryTrace, HeaderCarriesNodeCountAndEntryCount)
{
    const std::string bytes =
        toBinary({packet(100, 1, 2), packet(200, 3, 0)}, 16);
    // Magic, version 3, flags 0, then the node and packet counts.
    EXPECT_EQ(bytes.substr(0, 20),
              std::string("DVST\x03\0\0\0"
                          "\x10\0\0\0"
                          "\x02\0\0\0\0\0\0\0",
                          20));
    const std::string path = tempPath(".dvst");
    writeFile(path, bytes);
    EXPECT_EQ(DvstCursor(path).headerNodes(), 16u);
    std::remove(path.c_str());
}

TEST(BinaryTrace, AfterStepBitRoundTrips)
{
    const std::vector<StreamPacket> packets = {
        packet(1000, 1, 2, 0, 0, false), packet(1000, 3, 4, 5, 1, true),
        packet(2000, 4, 3, 0, 0, true), packet(2500, 2, 1)};
    EXPECT_EQ(fromBinary(toBinary(packets)), packets);
    // And so does the CSV form, in its sixth column.
    EXPECT_EQ(csvRoundTrip(packets), packets);
}

TEST(BinaryTrace, VersionsOneAndTwoAreRefused)
{
    // No older file can be read as version 3: each is refused by
    // number, however well formed its entries.
    const std::string bytes = toBinary({packet(1000, 1, 2)});
    for (const int version : {1, 2}) {
        const std::string what = binaryError(withField(bytes, 4, version, 2));
        EXPECT_NE(what.find(dvsnet::detail::concat("unsupported version ",
                                                   version)),
                  std::string::npos)
            << what;
    }
}

TEST(BinaryTrace, RejectsUnknownFlags)
{
    const std::string bytes = toBinary({packet(1, 0, 1)});
    EXPECT_NE(binaryError(withField(bytes, 6, 1, 2)).find("flags"),
              std::string::npos);
}

TEST(BinaryTrace, RejectsTicksPastTheRange)
{
    // Five gaps of 2^62 - 1 ticks, the largest a record holds, pass 64
    // bits on the fifth.  Each record after the first repeats it.
    constexpr Tick kGap = (Tick{1} << 62) - 1;
    std::vector<StreamPacket> packets;
    for (Tick k = 1; k <= 4; ++k)
        packets.push_back(packet(k * kGap, 0, 1));
    std::string bytes = toBinary(packets);
    const std::size_t record = (bytes.size() - 20) / 4;
    bytes += bytes.substr(bytes.size() - record);
    const std::string what = binaryError(withField(bytes, 12, 5, 8));
    EXPECT_NE(what.find("entry 4: tick overflows 64 bits"),
              std::string::npos)
        << what;
}

TEST(BinaryTrace, WriterRejectsDecreasingTicks)
{
    // A `.dvst` file is written only from a stream, and the importers
    // reject decreasing ticks before a stream holds them: converting
    // such a CSV fails and writes no file.
    const std::string csv = tempPath(".csv");
    const std::string dvst = tempPath(".dvst");
    writeFile(csv, "tick,src,dst\n100,1,2\n50,1,2\n");
    try {
        dvsnet::traffic::saveAnyTrace(*loadAnyTrace(csv), dvst);
        ADD_FAILURE() << "decreasing ticks converted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3: decreasing tick 50"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(std::ifstream(dvst).good());
    std::remove(csv.c_str());
}

TEST(BinaryTrace, RejectsBadMagic)
{
    EXPECT_NE(binaryError("this is not a dvst file at all....")
                  .find("bad magic"),
              std::string::npos);
}

TEST(BinaryTrace, RejectsUnsupportedVersion)
{
    const std::string bytes = toBinary({packet(1, 0, 1)});
    EXPECT_NE(binaryError(withField(bytes, 4, 99, 2))
                  .find("unsupported version 99"),
              std::string::npos);
}

TEST(BinaryTrace, RejectsTruncatedFile)
{
    const std::string bytes = toBinary(
        {{1000, {3, 4, 7, 2, 1}}, {2000, {4, 3, 7, 2, 1}}});
    // Chop mid-record, at the record boundary, and in the header.
    EXPECT_NE(binaryError(bytes.substr(0, bytes.size() - 2))
                  .find("entry 1: record runs past the end of the file"),
              std::string::npos);
    EXPECT_NE(binaryError(bytes.substr(0, bytes.size() - 7))
                  .find("ended after 1 of 2 declared packets"),
              std::string::npos);
    EXPECT_NE(binaryError(bytes.substr(0, 19)).find("truncated header"),
              std::string::npos);
    // And the other way: bytes past the declared count.
    EXPECT_NE(binaryError(bytes + '\0').find("data past the declared 2"),
              std::string::npos);
}

TEST(BinaryTrace, RejectsOutOfRangeNodeIdAgainstHeader)
{
    // src 9 is out of range for a 4-node header.
    EXPECT_NE(binaryError(toBinary({packet(10, 9, 1)}, 4))
                  .find("entry 0: src id 9 out of range [0, 4)"),
              std::string::npos);
}

TEST(BinaryTrace, FileRoundTripAndExtensionDispatch)
{
    // A tag and an after-step bit, which a `.dvst` keeps and CSV does not.
    std::vector<StreamPacket> packets = {packet(500, 2, 3, 9, 1),
                                         packet(700, 3, 2, 0, 0, true)};
    packets[0].request.tag = 0x5eed;
    const auto stream = streamOf(packets);
    const std::string path = tempPath(".dvst");
    dvsnet::traffic::saveAnyTrace(*stream, path, 16);
    const std::string first = readFile(path);
    EXPECT_EQ(fromBinary(first), packets);
    // The same stream written twice gives the same bytes.
    dvsnet::traffic::saveAnyTrace(*stream, path, 16);
    EXPECT_EQ(readFile(path), first);
    // loadAnyTrace dispatches on the extension.
    const auto loaded = loadAnyTrace(path);
    std::vector<StreamPacket> back;
    const auto cursor = loaded->cursor();
    for (StreamPacket p; cursor->next(p);)
        back.push_back(p);
    EXPECT_EQ(back, packets);
    std::remove(path.c_str());
}

TEST(BinaryTraceReplay, LockstepMatchesCsvReplay)
{
    // A trace exercising equal ticks, size/class mix, and bursts.
    std::vector<StreamPacket> packets;
    Rng rng(7);
    Tick when = 0;
    for (int k = 0; k < 300; ++k) {
        when += rng.uniformInt(3) * 500;
        // Readers reject self-addressed entries: dst differs from src.
        const auto src = static_cast<NodeId>(rng.uniformInt(16));
        const auto dst =
            static_cast<NodeId>((src + 1 + rng.uniformInt(15)) % 16);
        packets.push_back(
            packet(when, src, dst,
                   static_cast<std::uint16_t>(1 + rng.uniformInt(8)),
                   static_cast<std::uint8_t>(rng.uniformInt(2))));
    }
    const auto stream = streamOf(packets);
    const std::string csvPath = tempPath(".csv");
    const std::string dvstPath = tempPath(".dvst");
    dvsnet::traffic::saveAnyTrace(*stream, csvPath);
    dvsnet::traffic::saveAnyTrace(*stream, dvstPath, 16);

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

    ReplayTraffic csvReplay(loadAnyTrace(csvPath, 16));
    ReplayTraffic binaryReplay(dvstPath, 16);
    const auto fromCsvPath = capture(csvReplay);
    const auto fromBinaryPath = capture(binaryReplay);
    std::remove(csvPath.c_str());
    std::remove(dvstPath.c_str());

    ASSERT_EQ(fromCsvPath.size(), packets.size());
    EXPECT_EQ(fromCsvPath, fromBinaryPath);
    for (std::size_t k = 0; k < fromCsvPath.size(); ++k) {
        EXPECT_EQ(fromCsvPath[k].first, packets[k].when);
        EXPECT_EQ(fromCsvPath[k].second, packets[k].request);
    }
}

TEST(BinaryTraceReplay, MissingFileThrows)
{
    EXPECT_THROW(ReplayTraffic replay("/nonexistent/nope.dvst", 16),
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

/** Save `packets` with `headerNodes`; expect `message` from every path. */
void
expectMeshRejects(const std::vector<StreamPacket> &packets,
                  std::uint32_t headerNodes, const std::string &message)
{
    const std::string path = tempPath(".dvst");
    streamOf(packets)->save(path, headerNodes);
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
    expectMeshRejects({packet(500, 1, 2), packet(1000, 100, 3)}, 0,
                      "entry 1: src id 100 out of range [0, 64)");
}

TEST(BinaryTraceReplay, RejectsIdsPastTheMeshUnderALargerHeaderCount)
{
    expectMeshRejects({packet(500, 1, 2), packet(1000, 3, 100)}, 256,
                      "entry 1: dst id 100 out of range [0, 64)");
}

TEST(BinaryTraceReplay, RejectsSelfAddressedEntries)
{
    expectMeshRejects({packet(500, 1, 2), packet(1000, 3, 3)}, 64,
                      "entry 1: src and dst are both 3");
}
