#include "traffic/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/fatal.hpp"

namespace dvsnet::traffic
{

namespace
{

/** Strict non-negative integer parse of [begin, end); no sign, no
 *  whitespace, no trailing junk. */
bool
parseField(const char *begin, const char *end, std::uint64_t &out)
{
    if (begin == end)
        return false;
    const auto res = std::from_chars(begin, end, out);
    return res.ec == std::errc{} && res.ptr == end;
}

[[noreturn]] void
badLine(std::size_t lineNo, const std::string &line,
        const std::string &why)
{
    throw ConfigError(detail::concat("trace line ", lineNo, ": ", why,
                                     " in '", line, "'"));
}

} // namespace

void
Trace::append(const TraceEntry &entry)
{
    DVSNET_ASSERT(entries_.empty() || entry.when >= entries_.back().when,
                  "trace times must be non-decreasing");
    entries_.push_back(entry);
}

void
Trace::append(const StreamPacket &packet)
{
    const PacketRequest &r = packet.request;
    append(TraceEntry{packet.when, r.src, r.dst, r.sizeFlits,
                      r.trafficClass, packet.afterStep});
}

Trace
Trace::read(PacketCursor &cursor)
{
    Trace trace;
    for (StreamPacket packet; cursor.next(packet);)
        trace.append(packet);
    return trace;
}

bool
Trace::hasExtendedFields() const
{
    for (const auto &e : entries_) {
        if (e.sizeFlits != 0 || e.trafficClass != 0)
            return true;
    }
    return false;
}

std::string
Trace::toCsv() const
{
    const bool bits =
        std::any_of(entries_.begin(), entries_.end(),
                    [](const TraceEntry &e) { return e.afterStep; });
    const bool extended = bits || hasExtendedFields();
    std::ostringstream oss;
    oss << (bits       ? "tick,src,dst,size,class,after_step\n"
            : extended ? "tick,src,dst,size,class\n"
                       : "tick,src,dst\n");
    for (const auto &e : entries_) {
        oss << e.when << "," << e.src << "," << e.dst;
        if (extended) {
            oss << "," << e.sizeFlits << ","
                << static_cast<unsigned>(e.trafficClass);
        }
        if (bits)
            oss << "," << (e.afterStep ? 1 : 0);
        oss << "\n";
    }
    return oss.str();
}

Trace
Trace::fromCsv(const std::string &csv, NodeId numNodes)
{
    Trace trace;
    std::istringstream iss(csv);
    std::string line;
    bool first = true;
    std::size_t lineNo = 0;
    while (std::getline(iss, line)) {
        ++lineNo;
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

        // Split on commas; 3 (tick,src,dst), 5 (+size,class) or 6
        // (+after_step) fields.
        std::uint64_t fields[6] = {0, 0, 0, 0, 0, 0};
        std::size_t count = 0;
        const char *cursor = line.c_str();
        const char *lineEnd = cursor + line.size();
        while (true) {
            const char *comma = cursor;
            while (comma != lineEnd && *comma != ',')
                ++comma;
            if (count == 6)
                badLine(lineNo, line, "too many fields");
            if (!parseField(cursor, comma, fields[count])) {
                badLine(lineNo, line,
                        detail::concat("bad field ", count + 1));
            }
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

        const Tick when = static_cast<Tick>(fields[0]);
        if (!trace.entries_.empty() && when < trace.entries_.back().when) {
            badLine(lineNo, line,
                    detail::concat("decreasing tick ", when, " (previous ",
                                   trace.entries_.back().when, ")"));
        }
        for (int f = 1; f <= 2; ++f) {
            const char *what = f == 1 ? "src" : "dst";
            if (fields[f] >
                static_cast<std::uint64_t>(
                    std::numeric_limits<NodeId>::max())) {
                badLine(lineNo, line,
                        detail::concat(what, " id ", fields[f],
                                       " overflows NodeId"));
            }
            if (numNodes > 0 &&
                fields[f] >= static_cast<std::uint64_t>(numNodes)) {
                badLine(lineNo, line,
                        detail::concat(what, " id ", fields[f],
                                       " out of range [0, ", numNodes,
                                       ")"));
            }
        }
        if (fields[1] == fields[2]) {
            badLine(lineNo, line,
                    detail::concat("src and dst are both ", fields[1]));
        }
        if (fields[3] > std::numeric_limits<std::uint16_t>::max())
            badLine(lineNo, line, "size overflows 16 bits");
        if (fields[4] > std::numeric_limits<std::uint8_t>::max())
            badLine(lineNo, line, "class overflows 8 bits");
        if (fields[5] > 1)
            badLine(lineNo, line, "after_step must be 0 or 1");

        trace.entries_.push_back(
            {when, static_cast<NodeId>(fields[1]),
             static_cast<NodeId>(fields[2]),
             static_cast<std::uint16_t>(fields[3]),
             static_cast<std::uint8_t>(fields[4]), fields[5] == 1});
    }
    return trace;
}

void
Trace::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        throw ConfigError("cannot open trace file '" + path +
                          "' for writing");
    }
    out << toCsv();
    out.flush();
    if (!out)
        throw ConfigError("failed writing trace file '" + path + "'");
}

Trace
Trace::load(const std::string &path, NodeId numNodes)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open trace file '" + path + "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return fromCsv(oss.str(), numNodes);
}

namespace
{

/** Reads a trace's entries in order. */
class TraceCursor final : public PacketCursor
{
  public:
    explicit TraceCursor(const std::vector<TraceEntry> &entries)
        : it_(entries.begin()), end_(entries.end())
    {
    }

    bool
    next(StreamPacket &out) override
    {
        if (it_ == end_)
            return false;
        out = (it_++)->toPacket();
        return true;
    }

    Tick horizon() const override { return kTickNever; }

  private:
    std::vector<TraceEntry>::const_iterator it_;
    std::vector<TraceEntry>::const_iterator end_;
};

} // namespace

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

std::unique_ptr<PacketCursor>
TraceTraffic::openStream()
{
    return std::make_unique<TraceCursor>(trace_.entries());
}

} // namespace dvsnet::traffic
