#include "workload/trace_binary.hpp"

#include <cstring>
#include <limits>
#include <ostream>

#include "common/fatal.hpp"
#include "common/varint.hpp"

namespace dvsnet::workload
{

namespace
{

/** Header size in bytes: magic + version + flags + numNodes + count. */
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 4 + 8;

void
putU16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v & 0xff);
    p[1] = static_cast<unsigned char>(v >> 8);
}

void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Read one varint of entry `entryIndex`.  Returns false on a clean EOF
 * *before the first byte*; throws on truncation mid-varint or overlong
 * encoding.
 */
bool
readVarint(std::istream &in, std::uint64_t &out, std::uint64_t entryIndex)
{
    switch (getVarint([&in] { return in.get(); }, out)) {
      case VarintStatus::Ok:
        return true;
      case VarintStatus::End:
        return false;
      case VarintStatus::Truncated:
        throw ConfigError(detail::concat(
            "binary trace: truncated varint in entry ", entryIndex));
      case VarintStatus::Overflow:
        break;
    }
    throw ConfigError(detail::concat(
        "binary trace: varint overflow in entry ", entryIndex));
}

/** Streams a binary trace file as the network pulls it. */
class FileTraceCursor final : public traffic::PacketCursor
{
  public:
    FileTraceCursor(const std::string &path, NodeId numNodes)
        : file_(path, std::ios::binary)
    {
        if (!file_)
            throw ConfigError("cannot open binary trace '" + path + "'");
        reader_ = std::make_unique<BinaryTraceReader>(file_, numNodes);
    }

    bool
    next(traffic::StreamPacket &out) override
    {
        traffic::TraceEntry entry;
        if (!reader_->next(entry))
            return false;
        out = entry.toPacket();
        return true;
    }

    Tick horizon() const override { return kTickNever; }

  private:
    std::ifstream file_;
    std::unique_ptr<BinaryTraceReader> reader_;
};

} // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream &out,
                                     std::uint32_t numNodes)
    : out_(out), headerPos_(out.tellp())
{
    unsigned char header[kHeaderBytes];
    putU32(header + 0, kTraceMagic);
    putU16(header + 4, kTraceVersion);
    putU16(header + 6, 0);  // flags
    putU32(header + 8, numNodes);
    putU64(header + 12, 0);  // entryCount: backpatched by finish()
    out_.write(reinterpret_cast<const char *>(header), kHeaderBytes);
    if (!out_)
        throw ConfigError("binary trace: cannot write header");
}

void
BinaryTraceWriter::append(const traffic::TraceEntry &entry)
{
    DVSNET_ASSERT(!finished_, "append after finish");
    if (count_ > 0 && entry.when < lastTick_) {
        throw ConfigError(detail::concat(
            "binary trace: decreasing tick ", entry.when, " after ",
            lastTick_, " in entry ", count_));
    }
    const Tick delta = entry.when - lastTick_;
    if (delta >> 63 != 0) {
        throw ConfigError(detail::concat(
            "binary trace: tick gap ", delta, " too large in entry ",
            count_));
    }
    unsigned char buf[5 * kMaxVarintBytes];
    std::size_t n = putVarint(buf, delta << 1 | (entry.afterStep ? 1 : 0));
    n += putVarint(buf + n, static_cast<std::uint64_t>(entry.src));
    n += putVarint(buf + n, static_cast<std::uint64_t>(entry.dst));
    n += putVarint(buf + n, entry.sizeFlits);
    n += putVarint(buf + n, entry.trafficClass);
    out_.write(reinterpret_cast<const char *>(buf), static_cast<long>(n));
    if (!out_) {
        throw ConfigError(detail::concat(
            "binary trace: write failed at entry ", count_));
    }
    lastTick_ = entry.when;
    ++count_;
}

void
BinaryTraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // Backpatch the entry count when the stream supports seeking; a
    // pure pipe keeps count 0 = "unknown" and readers run to EOF.
    const std::streampos end = out_.tellp();
    if (end != std::streampos(-1) && headerPos_ != std::streampos(-1)) {
        out_.seekp(headerPos_ + std::streamoff(12));
        if (out_) {
            unsigned char buf[8];
            putU64(buf, count_);
            out_.write(reinterpret_cast<const char *>(buf), 8);
            out_.seekp(end);
        }
        out_.clear();
    }
    out_.flush();
    if (!out_)
        throw ConfigError("binary trace: flush failed");
}

BinaryTraceReader::BinaryTraceReader(std::istream &in, NodeId numNodes)
    : in_(in)
{
    unsigned char header[kHeaderBytes];
    in_.read(reinterpret_cast<char *>(header), kHeaderBytes);
    if (in_.gcount() != static_cast<std::streamsize>(kHeaderBytes))
        throw ConfigError("binary trace: truncated header");
    if (getU32(header + 0) != kTraceMagic) {
        throw ConfigError(
            "binary trace: bad magic (not a DVST trace file)");
    }
    header_.version = getU16(header + 4);
    if (header_.version != 1 && header_.version != kTraceVersion) {
        throw ConfigError(detail::concat(
            "binary trace: unsupported version ", header_.version,
            " (this build reads versions 1 and ", kTraceVersion, ")"));
    }
    if (getU16(header + 6) != 0)
        throw ConfigError("binary trace: nonzero reserved flags");
    header_.numNodes = getU32(header + 8);
    header_.entryCount = getU64(header + 12);
    // Ids must lie below the smaller of the two counts given.
    nodeLimit_ = header_.numNodes;
    const auto network = static_cast<std::uint64_t>(numNodes);
    if (numNodes > 0 && (nodeLimit_ == 0 || network < nodeLimit_))
        nodeLimit_ = network;
}

bool
BinaryTraceReader::next(traffic::TraceEntry &entry)
{
    if (done_)
        return false;
    if (header_.entryCount != 0 && count_ == header_.entryCount) {
        // Declared count reached; anything further is trailing junk.
        if (in_.peek() != std::char_traits<char>::eof()) {
            throw ConfigError(detail::concat(
                "binary trace: data past the declared ",
                header_.entryCount, " entries"));
        }
        done_ = true;
        return false;
    }

    std::uint64_t head = 0;
    if (!readVarint(in_, head, count_)) {
        if (header_.entryCount != 0 && count_ < header_.entryCount) {
            throw ConfigError(detail::concat(
                "binary trace: ended after ", count_, " of ",
                header_.entryCount, " declared entries"));
        }
        done_ = true;
        return false;
    }
    std::uint64_t fields[4];
    for (auto &f : fields) {
        if (!readVarint(in_, f, count_)) {
            throw ConfigError(detail::concat(
                "binary trace: truncated entry ", count_));
        }
    }
    for (int i = 0; i < 2; ++i) {
        const char *what = i == 0 ? "src" : "dst";
        if (fields[i] >
            static_cast<std::uint64_t>(std::numeric_limits<NodeId>::max())) {
            throw ConfigError(detail::concat("binary trace: entry ",
                                             count_, ": ", what, " id ",
                                             fields[i],
                                             " overflows NodeId"));
        }
        if (nodeLimit_ != 0 && fields[i] >= nodeLimit_) {
            throw ConfigError(detail::concat(
                "binary trace: entry ", count_, ": ", what, " id ",
                fields[i], " out of range [0, ", nodeLimit_, ")"));
        }
    }
    if (fields[0] == fields[1]) {
        throw ConfigError(detail::concat("binary trace: entry ", count_,
                                         ": src and dst are both ",
                                         fields[0]));
    }
    if (fields[2] > std::numeric_limits<std::uint16_t>::max()) {
        throw ConfigError(detail::concat("binary trace: entry ", count_,
                                         ": size overflows 16 bits"));
    }
    if (fields[3] > std::numeric_limits<std::uint8_t>::max()) {
        throw ConfigError(detail::concat("binary trace: entry ", count_,
                                         ": class overflows 8 bits"));
    }

    // Version 2 folds the after-step bit into the delta; version 1
    // entries have it clear.
    const bool v2 = header_.version == 2;
    const std::uint64_t delta = v2 ? head >> 1 : head;
    if (delta > kTickNever - lastTick_) {
        throw ConfigError(detail::concat("binary trace: entry ", count_,
                                         ": tick overflows 64 bits"));
    }
    entry.when = lastTick_ + delta;
    entry.src = static_cast<NodeId>(fields[0]);
    entry.dst = static_cast<NodeId>(fields[1]);
    entry.sizeFlits = static_cast<std::uint16_t>(fields[2]);
    entry.trafficClass = static_cast<std::uint8_t>(fields[3]);
    entry.afterStep = v2 && (head & 1) != 0;
    lastTick_ = entry.when;
    ++count_;
    return true;
}

void
saveBinaryTrace(const traffic::Trace &trace, const std::string &path,
                std::uint32_t numNodes)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw ConfigError("cannot open binary trace '" + path +
                          "' for writing");
    }
    BinaryTraceWriter writer(out, numNodes);
    for (const auto &e : trace.entries())
        writer.append(e);
    writer.finish();
    out.close();
    if (!out)
        throw ConfigError("failed writing binary trace '" + path + "'");
}

traffic::Trace
loadBinaryTrace(const std::string &path, NodeId numNodes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError("cannot open binary trace '" + path + "'");
    BinaryTraceReader reader(in, numNodes);
    traffic::Trace trace;
    traffic::TraceEntry entry;
    while (reader.next(entry))
        trace.append(entry);
    return trace;
}

bool
isBinaryTracePath(const std::string &path)
{
    const std::size_t n = std::strlen(kTraceExtension);
    return path.size() >= n &&
           path.compare(path.size() - n, n, kTraceExtension) == 0;
}

traffic::Trace
loadAnyTrace(const std::string &path, NodeId numNodes)
{
    if (isBinaryTracePath(path))
        return loadBinaryTrace(path, numNodes);
    return traffic::Trace::load(path, numNodes);
}

BinaryTraceReplay::BinaryTraceReplay(const std::string &path,
                                     NodeId numNodes)
    : path_(path), numNodes_(numNodes)
{
    // Fail at construction on a bad file.
    FileTraceCursor check(path_, numNodes_);
}

std::unique_ptr<traffic::PacketCursor>
BinaryTraceReplay::openStream()
{
    return std::make_unique<FileTraceCursor>(path_, numNodes_);
}

} // namespace dvsnet::workload
