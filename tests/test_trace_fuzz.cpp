/**
 * @file
 * Deterministic mutation fuzzing of the one trace import path.  A valid
 * `.dvst` file of several blocks and a valid CSV are bit-flipped,
 * overwritten, truncated (at every offset of the header and the first
 * records, and around each block boundary), and grown or shrunk by
 * inserted and deleted bytes; the CSV's fields are also widened to 15
 * to 21 digits.  Every mutant is loaded through loadAnyTrace and
 * replayed into a 4x4 network (a `.dvst` straight from disk through its
 * file cursor): each must either yield packets a network can create or
 * raise ConfigError — never crash, hang or trip a sanitizer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "network/network.hpp"
#include "traffic/trace.hpp"

using dvsnet::ConfigError;
using dvsnet::NodeId;
using dvsnet::Rng;
using dvsnet::Tick;
using dvsnet::traffic::PacketStream;
using dvsnet::traffic::StreamPacket;

namespace
{

constexpr NodeId kNodes = 16;  ///< the 4x4 mesh every mutant feeds

/** Outcomes over one suite's mutants. */
struct Tally
{
    std::size_t loaded = 0;
    std::size_t rejected = 0;
};

std::string
tempPath(const char *suffix)
{
    return ::testing::TempDir() + "/dvsnet_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** A valid recording on kNodes nodes: tags, sizes, classes, edge bits. */
std::unique_ptr<PacketStream>
validStream(std::uint64_t seed, std::size_t packets)
{
    Rng rng(seed);
    auto stream = std::make_unique<PacketStream>();
    Tick when = 0;
    for (std::size_t k = 0; k < packets; ++k) {
        when += rng.uniformInt(3) * (dvsnet::kRouterClockPeriod / 2);
        const auto src = static_cast<NodeId>(rng.uniformInt(kNodes));
        const auto dst = static_cast<NodeId>(
            (src + 1 + static_cast<NodeId>(rng.uniformInt(kNodes - 1))) %
            kNodes);
        const bool onEdge = when % dvsnet::kRouterClockPeriod == 0;
        stream->append({when,
                        {src, dst, static_cast<std::uint16_t>(rng.uniformInt(9)),
                         static_cast<std::uint8_t>(rng.uniformInt(4)),
                         rng.uniformInt(std::uint64_t{1} << 40)},
                        onEdge && rng.bernoulli(0.1)});
    }
    stream->finish();
    return stream;
}

/**
 * Load `bytes` as the trace file `path` names, and replay it into a 4x4
 * mesh; a `.dvst` replays from disk.  Every packet either importer
 * yields must pass the validity rules; anything else must be a
 * ConfigError.
 */
void
tryMutant(const std::string &path, const std::string &bytes, Tally &tally,
          const std::string &what)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    std::shared_ptr<const PacketStream> stream;
    try {
        stream = dvsnet::traffic::loadAnyTrace(path, kNodes);
    } catch (const ConfigError &) {
        ++tally.rejected;
        return;
    }
    ++tally.loaded;
    Tick previous = 0;
    const auto cursor = stream->cursor();
    for (StreamPacket p; cursor->next(p);) {
        const dvsnet::traffic::RawPacket raw{
            p.when,
            static_cast<std::uint64_t>(p.request.src),
            static_cast<std::uint64_t>(p.request.dst),
            p.request.sizeFlits,
            p.request.trafficClass};
        ASSERT_EQ(dvsnet::traffic::packetProblem(raw, previous, kNodes), "")
            << what;
        previous = p.when;
    }

    dvsnet::network::NetworkConfig cfg;
    cfg.radix = 4;
    cfg.policy = dvsnet::network::PolicyKind::None;
    dvsnet::network::Network net(cfg);
    const auto replay =
        dvsnet::traffic::isBinaryTracePath(path)
            ? std::make_unique<dvsnet::traffic::ReplayTraffic>(path, kNodes)
            : std::make_unique<dvsnet::traffic::ReplayTraffic>(stream);
    net.attachTraffic(*replay);
    // loadAnyTrace read the same bytes, so the replay cannot fail.
    EXPECT_NO_THROW(net.run(0, 200)) << what;
}

/**
 * Every mutant of `valid`: truncations at each offset below
 * `prefix` and at `cuts`, bit flips, byte overwrites from `alphabet`,
 * and inserted and deleted runs of bytes.
 */
Tally
fuzz(const std::string &path, const std::string &valid, std::size_t prefix,
     const std::vector<std::size_t> &cuts, const std::string &alphabet,
     std::uint64_t seed)
{
    Tally tally;
    for (std::size_t n = 0; n < std::min(prefix, valid.size()); ++n)
        tryMutant(path, valid.substr(0, n), tally, "truncated to " +
                                                       std::to_string(n));
    for (const std::size_t n : cuts)
        tryMutant(path, valid.substr(0, n), tally, "cut at " +
                                                       std::to_string(n));
    Rng rng(seed);
    // Half the point mutations land in the first `prefix` bytes, where
    // the header and the first records are.
    const auto offset = [&] {
        return rng.bernoulli(0.5) ? rng.uniformInt(std::min(prefix, valid.size()))
                                  : rng.uniformInt(valid.size());
    };
    for (int k = 0; k < 250; ++k) {
        std::string bytes = valid;
        const std::size_t at = offset();
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniformInt(8)));
        tryMutant(path, bytes, tally, "bit flip at " + std::to_string(at));
    }
    for (int k = 0; k < 150; ++k) {
        std::string bytes = valid;
        const std::size_t at = offset();
        bytes[at] = alphabet[rng.uniformInt(alphabet.size())];
        tryMutant(path, bytes, tally, "overwrite at " + std::to_string(at));
    }
    for (int k = 0; k < 100; ++k) {
        std::string bytes = valid;
        const std::size_t at = offset();
        const std::size_t len = 1 + rng.uniformInt(4);
        if (rng.bernoulli(0.5)) {
            for (std::size_t i = 0; i < len; ++i) {
                bytes.insert(bytes.begin() + static_cast<long>(at),
                             alphabet[rng.uniformInt(alphabet.size())]);
            }
        } else {
            bytes.erase(at, len);
        }
        tryMutant(path, bytes, tally, "insert/delete at " + std::to_string(at));
    }
    std::remove(path.c_str());
    return tally;
}

} // namespace

TEST(TraceFuzz, DvstMutantsLoadValidPacketsOrRaiseConfigError)
{
    const auto stream = validStream(20031017, 12000);
    ASSERT_GT(stream->bytes(), 2 * PacketStream::kBlockBytes);
    const std::string path = tempPath(".dvst");
    stream->save(path, kNodes);
    const std::string valid = readFile(path);

    // Around each block boundary: the header is 20 bytes.
    std::vector<std::size_t> cuts;
    for (std::size_t b = 20 + PacketStream::kBlockBytes; b < valid.size();
         b += PacketStream::kBlockBytes) {
        for (const std::size_t n : {b - 61, b - 1, b, b + 1, b + 7})
            cuts.push_back(n);
    }
    cuts.push_back(valid.size() - 1);
    std::string alphabet;
    for (const int c : {0x00, 0x01, 0x02, 0x03, 0x0f, 0x10, 0x7f, 0x80, 0x81,
                        0xfe, 0xff})
        alphabet += static_cast<char>(c);

    const Tally tally = fuzz(path, valid, 220, cuts, alphabet, 7);
    // Both outcomes occur: the suite is not trivially one-sided.
    EXPECT_GT(tally.loaded, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(TraceFuzz, CsvMutantsLoadValidPacketsOrRaiseConfigError)
{
    std::ostringstream csv;
    dvsnet::traffic::exportCsv(*validStream(1906, 300), csv);
    const std::string valid = csv.str();

    const std::string path = tempPath(".csv");
    Tally tally = fuzz(path, valid, 300, {valid.size() - 1}, "0159,-\n\r x",
                       11);
    EXPECT_GT(tally.loaded, 0u);
    EXPECT_GT(tally.rejected, 0u);

    // Byte mutations rarely build a long number, so widen one field to
    // 15 to 21 digits, the tick half the time: a tick past 64 bits or
    // 2^62 or more past the one before, ids, sizes and classes past
    // their widths.
    std::vector<std::size_t> lineStarts = {0};
    for (std::size_t i = 0; i + 1 < valid.size(); ++i) {
        if (valid[i] == '\n')
            lineStarts.push_back(i + 1);
    }
    Rng rng(13);
    tally = {};
    for (int k = 0; k < 100; ++k) {
        std::size_t at = lineStarts[rng.uniformInt(lineStarts.size())];
        for (std::uint64_t n = rng.bernoulli(0.5) ? 0 : rng.uniformInt(6);
             n > 0 && valid[valid.find_first_of(",\n", at)] == ',';
             --n)
            at = valid.find_first_of(",\n", at) + 1;
        std::string digits(1, "123456789"[rng.uniformInt(9)]);
        for (std::uint64_t n = 15 + rng.uniformInt(7); digits.size() < n;)
            digits += static_cast<char>('0' + rng.uniformInt(10));
        std::string bytes = valid;
        bytes.replace(at, valid.find_first_of(",\n", at) - at, digits);
        tryMutant(path, bytes, tally, "field at " + std::to_string(at) +
                                          " widened to " + digits);
    }
    std::remove(path.c_str());
    EXPECT_GT(tally.rejected, 0u);
}
