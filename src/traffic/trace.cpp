#include "traffic/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/fatal.hpp"

namespace dvsnet::traffic
{

namespace
{

/** Strict non-negative integer parse of [begin, end); no sign, no
 *  whitespace, no trailing junk. */
std::errc
parseField(const char *begin, const char *end, std::uint64_t &out)
{
    if (begin == end)
        return std::errc::invalid_argument;
    const auto res = std::from_chars(begin, end, out);
    if (res.ec == std::errc{} && res.ptr != end)
        return std::errc::invalid_argument;
    return res.ec;
}

[[noreturn]] void
badLine(std::size_t lineNo, const std::string &line,
        const std::string &why)
{
    throw ConfigError(detail::concat("trace line ", lineNo, ": ", why,
                                     " in '", line, "'"));
}

/**
 * The packet on CSV line `lineNo`, checked against `previous`'s tick
 * (0: none yet).  @throws ConfigError naming the line
 */
StreamPacket
parseLine(const std::string &line, std::size_t lineNo, Tick previous,
          std::uint64_t nodeLimit)
{
    // Split on commas; 3 (tick,src,dst), 5 (+size,class) or 6
    // (+after_step) fields.
    std::uint64_t fields[6] = {0, 0, 0, 0, 0, 0};
    std::size_t count = 0;
    bool tickOverflows = false;
    const char *cursor = line.c_str();
    const char *lineEnd = cursor + line.size();
    while (true) {
        const char *comma = std::find(cursor, lineEnd, ',');
        if (count == 6)
            badLine(lineNo, line, "too many fields");
        const std::errc ec = parseField(cursor, comma, fields[count]);
        if (count == 0 && ec == std::errc::result_out_of_range)
            tickOverflows = true;
        else if (ec != std::errc{})
            badLine(lineNo, line, detail::concat("bad field ", count + 1));
        ++count;
        if (comma == lineEnd)
            break;
        cursor = comma + 1;
    }
    if (count != 3 && count != 5 && count != 6) {
        badLine(lineNo, line,
                detail::concat("expected 3 or 5 fields, or 6 with "
                               "after_step, got ",
                               count));
    }
    if (fields[5] > 1)
        badLine(lineNo, line, "after_step must be 0 or 1");

    RawPacket raw;
    if (!tickOverflows)
        raw.when = fields[0];
    raw.src = fields[1];
    raw.dst = fields[2];
    raw.sizeFlits = fields[3];
    raw.trafficClass = fields[4];
    raw.afterStep = fields[5] == 1;
    if (const std::string why = packetProblem(raw, previous, nodeLimit);
        !why.empty()) {
        badLine(lineNo, line, why);
    }
    return raw.packet();
}

} // namespace

std::unique_ptr<const PacketStream>
importCsv(std::istream &in, NodeId numNodes)
{
    auto stream = std::make_unique<PacketStream>();
    const auto nodeLimit =
        static_cast<std::uint64_t>(std::max<NodeId>(numNodes, 0));
    std::string line;
    bool first = true;
    Tick previous = 0;
    for (std::size_t lineNo = 1; std::getline(in, line); ++lineNo) {
        // Tolerate CRLF input: std::getline strips the LF only.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (first) {
            first = false;
            if (line.rfind("tick", 0) == 0)
                continue;  // header
        }
        const StreamPacket packet =
            parseLine(line, lineNo, previous, nodeLimit);
        stream->append(packet);
        previous = packet.when;
    }
    stream->finish();
    return stream;
}

void
exportCsv(const PacketStream &stream, std::ostream &out)
{
    // A first pass picks the columns: the fewest that hold every packet.
    bool extended = false;
    bool bits = false;
    const auto scan = stream.cursor();
    for (StreamPacket p; scan->next(p);) {
        extended = extended || p.request.sizeFlits != 0 ||
                   p.request.trafficClass != 0;
        bits = bits || p.afterStep;
    }
    extended = extended || bits;
    out << (bits       ? "tick,src,dst,size,class,after_step\n"
            : extended ? "tick,src,dst,size,class\n"
                       : "tick,src,dst\n");
    const auto rows = stream.cursor();
    for (StreamPacket p; rows->next(p);) {
        const PacketRequest &r = p.request;
        out << p.when << "," << r.src << "," << r.dst;
        if (extended) {
            out << "," << r.sizeFlits << ","
                << static_cast<unsigned>(r.trafficClass);
        }
        if (bits)
            out << "," << (p.afterStep ? 1 : 0);
        out << "\n";
    }
}

bool
isBinaryTracePath(const std::string &path)
{
    constexpr std::string_view kExtension = ".dvst";
    return path.ends_with(kExtension);
}

std::unique_ptr<const PacketStream>
loadAnyTrace(const std::string &path, NodeId numNodes)
{
    if (isBinaryTracePath(path)) {
        auto stream = std::make_unique<PacketStream>();
        DvstCursor cursor(path, numNodes);
        for (StreamPacket p; cursor.next(p);)
            stream->append(p);
        stream->finish();
        return stream;
    }
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open trace file '" + path + "'");
    return importCsv(in, numNodes);
}

void
saveAnyTrace(const PacketStream &stream, const std::string &path,
             std::uint32_t numNodes)
{
    if (isBinaryTracePath(path)) {
        stream.save(path, numNodes);
        return;
    }
    std::ofstream out(path);
    if (!out) {
        throw ConfigError("cannot open trace file '" + path +
                          "' for writing");
    }
    exportCsv(stream, out);
    out.close();
    if (!out)
        throw ConfigError("failed writing trace file '" + path + "'");
}

void
TraceRecorder::start(sim::Kernel &kernel, PacketSink sink)
{
    inner_.start(kernel, [this, &kernel, sink = std::move(sink)](
                             const PacketRequest &request) {
        stream_->append({kernel.now(), request});
        sink(request);
    });
}

std::shared_ptr<const PacketStream>
TraceRecorder::finish()
{
    stream_->finish();
    return stream_;
}

ReplayTraffic::ReplayTraffic(std::shared_ptr<const PacketStream> stream)
    : stream_(std::move(stream))
{
}

ReplayTraffic::ReplayTraffic(std::string path, NodeId numNodes)
    : path_(std::move(path)), numNodes_(numNodes)
{
    // Fail at construction on a bad header.
    DvstCursor check(path_, numNodes_);
}

std::unique_ptr<PacketCursor>
ReplayTraffic::openStream()
{
    if (stream_)
        return stream_->cursor();
    return std::make_unique<DvstCursor>(path_, numNodes_);
}

void
ReplayTraffic::start(sim::Kernel &kernel, PacketSink sink)
{
    kernel_ = &kernel;
    sink_ = std::move(sink);
    cursor_ = openStream();
    if (cursor_->next(next_))
        scheduleNext();
}

void
ReplayTraffic::scheduleNext()
{
    kernel_->at(std::max(next_.when, kernel_->now()), [this] {
        sink_(next_.request);
        if (cursor_->next(next_))
            scheduleNext();
    });
}

} // namespace dvsnet::traffic
