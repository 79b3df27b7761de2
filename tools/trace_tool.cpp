/**
 * @file
 * Packet-trace utility: record a workload into a trace file, convert
 * between the CSV and binary (.dvst) formats, and inspect a trace.
 *
 *   trace_tool record out=FILE [workload=SPEC] [radix=N] [torus=0|1]
 *              [cycles=N] [rate=R] [seed=S]
 *       Record every packet the named workload (any
 *       workload::workloadRegistry() spec; default "uniform") creates on a
 *       radix x radix mesh.  An open-loop workload is recorded with its
 *       generator alone (traffic::PacketStream::record), which sets the
 *       after-step bits; a closed-loop one ("cmp") from a live run with
 *       DVS disabled, bits clear.  The output format follows the file
 *       extension: ".dvst" = binary, anything else = CSV.
 *
 *   trace_tool convert in=FILE out=FILE [nodes=N]
 *       Re-encode a trace (extension selects each side's format).
 *       `nodes` stamps a node count into a binary output header so
 *       readers range-check ids (0 = unknown).
 *
 *   trace_tool inspect in=FILE
 *       Print header/summary info.  Binary traces are streamed, so
 *       inspection of arbitrarily long traces is O(1) in memory.
 *
 * User errors (bad spec, malformed trace, unwritable path) exit 1 with
 * a message on stderr.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/config.hpp"
#include "common/fatal.hpp"
#include "network/network.hpp"
#include "traffic/stream.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"
#include "workload/trace_binary.hpp"

using namespace dvsnet;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_tool record out=FILE [workload=SPEC] [radix=N]\n"
        "                  [torus=0|1] [cycles=N] [rate=R] [seed=S]\n"
        "       trace_tool convert in=FILE out=FILE [nodes=N]\n"
        "       trace_tool inspect in=FILE\n"
        "\n"
        "formats by extension: .dvst = binary, anything else = CSV\n"
        "registered workloads:\n");
    const auto &registry = workload::workloadRegistry();
    for (const auto &name : registry.names()) {
        std::fprintf(stderr, "  %-16s %s\n", name.c_str(),
                     registry.description(name).c_str());
    }
    return 1;
}

std::string
requireKey(const Config &config, const std::string &key,
           const char *command)
{
    const std::string value = config.getString(key, "");
    if (value.empty()) {
        throw ConfigError(detail::concat("trace_tool ", command,
                                         ": missing required ", key,
                                         "=FILE"));
    }
    return value;
}

void
saveTrace(const traffic::Trace &trace, const std::string &path,
          std::uint32_t numNodes)
{
    if (workload::isBinaryTracePath(path))
        workload::saveBinaryTrace(trace, path, numNodes);
    else
        trace.save(path);
}

int
record(const Config &config)
{
    const std::string out = requireKey(config, "out", "record");
    const std::string spec = config.getString("workload", "uniform");

    network::NetworkConfig cfg;
    cfg.radix = static_cast<std::int32_t>(config.getInt("radix", 8));
    cfg.torus = config.getBool("torus", false);
    cfg.policy = network::PolicyKind::None;

    const Cycle cycles = config.getCount("cycles", 50000);
    network::Network net(cfg);
    workload::WorkloadContext context{
        net.topology(), config.getDouble("rate", 1.0),
        config.getCount("seed", 12345),
        traffic::TwoLevelParams{}};
    const auto generator = workload::buildWorkload(spec, context);
    traffic::Trace trace;
    if (generator->wantsDeliveries()) {
        traffic::TraceRecorder recorder(*generator);
        net.attachTraffic(recorder);
        net.run(0, cycles);
        trace = recorder.trace();
    } else {
        const auto stream =
            traffic::PacketStream::record(*generator, cyclesToTicks(cycles));
        trace = traffic::Trace::read(*stream->cursor());
    }

    saveTrace(trace, out,
              static_cast<std::uint32_t>(net.topology().numNodes()));
    std::printf("recorded %zu packets over %llu cycles of '%s' -> %s\n",
                trace.size(), static_cast<unsigned long long>(cycles),
                spec.c_str(), out.c_str());
    return 0;
}

int
convert(const Config &config)
{
    const std::string in = requireKey(config, "in", "convert");
    const std::string out = requireKey(config, "out", "convert");
    const auto nodes =
        static_cast<std::uint32_t>(config.getInt("nodes", 0));

    const traffic::Trace trace = workload::loadAnyTrace(in);
    saveTrace(trace, out, nodes);
    std::printf("converted %zu entries: %s -> %s\n", trace.size(),
                in.c_str(), out.c_str());
    return 0;
}

/** Shared summary accumulator for both formats. */
struct Summary
{
    std::uint64_t entries = 0;
    Tick first = 0;
    Tick last = 0;
    NodeId maxNode = -1;
    std::map<std::uint8_t, std::uint64_t> perClass;
    bool extended = false;
    std::uint64_t afterStep = 0;

    void
    add(const traffic::TraceEntry &entry)
    {
        if (entries == 0)
            first = entry.when;
        last = entry.when;
        maxNode = std::max({maxNode, entry.src, entry.dst});
        ++perClass[entry.trafficClass];
        extended = extended || entry.sizeFlits != 0 ||
                   entry.trafficClass != 0;
        afterStep += entry.afterStep ? 1 : 0;
        ++entries;
    }
};

int
inspect(const Config &config)
{
    const std::string in = requireKey(config, "in", "inspect");
    Summary summary;

    if (workload::isBinaryTracePath(in)) {
        std::ifstream file(in, std::ios::binary);
        if (!file)
            throw ConfigError("cannot open binary trace '" + in + "'");
        workload::BinaryTraceReader reader(file);
        std::printf("format:       binary (version %u)\n",
                    reader.header().version);
        std::printf("header nodes: %u%s\n", reader.header().numNodes,
                    reader.header().numNodes == 0 ? " (unknown)" : "");
        traffic::TraceEntry entry;
        while (reader.next(entry))
            summary.add(entry);
    } else {
        std::printf("format:       CSV\n");
        const traffic::Trace trace = traffic::Trace::load(in);
        for (const auto &entry : trace.entries())
            summary.add(entry);
    }

    std::printf("entries:      %llu\n",
                static_cast<unsigned long long>(summary.entries));
    if (summary.entries == 0)
        return 0;
    std::printf("max node id:  %d\n", summary.maxNode);
    std::printf("tick span:    %llu .. %llu (%.1f cycles)\n",
                static_cast<unsigned long long>(summary.first),
                static_cast<unsigned long long>(summary.last),
                static_cast<double>(summary.last - summary.first) /
                    static_cast<double>(kRouterClockPeriod));
    std::printf("extended:     %s\n",
                summary.extended ? "yes (per-packet size/class)"
                                 : "no (default size, class 0)");
    std::printf("after-step:   %llu entries\n",
                static_cast<unsigned long long>(summary.afterStep));
    for (const auto &[cls, count] : summary.perClass) {
        std::printf("class %3u:    %llu packets\n", cls,
                    static_cast<unsigned long long>(count));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        // fromArgs skips its argv[0]; offset so it parses everything
        // after the subcommand token.
        const Config config = Config::fromArgs(argc - 1, argv + 1);
        if (command == "record")
            return record(config);
        if (command == "convert")
            return convert(config);
        if (command == "inspect")
            return inspect(config);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "trace_tool: unknown command '%s'\n",
                 command.c_str());
    return usage();
}
