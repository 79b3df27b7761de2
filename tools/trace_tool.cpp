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
 *       DVS disabled, bits clear.
 *
 *   trace_tool convert in=FILE out=FILE [nodes=N]
 *       Re-encode a trace.  `nodes` stamps a node count into a binary
 *       output header so readers range-check ids (0 = unknown).
 *
 *   trace_tool inspect in=FILE
 *       Print header/summary info.  Binary traces are read one block at
 *       a time, so inspecting one of any length takes O(1) memory.
 *
 * The file extension selects each file's format: ".dvst" = binary (a
 * packet stream's own blocks, tags kept), anything else = CSV.  User
 * errors (a key the subcommand does not read, a bad spec, a malformed
 * trace, an unwritable path) exit 1 with one `fatal:` line on stderr.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"

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
        "formats by extension: .dvst = binary (version %u), anything\n"
        "else = CSV; a key the subcommand does not read is an error\n"
        "registered workloads:\n",
        static_cast<unsigned>(traffic::DvstCursor::kVersion));
    const auto &registry = workload::workloadRegistry();
    for (const auto &name : registry.names()) {
        std::fprintf(stderr, "  %-16s %s\n", name.c_str(),
                     registry.description(name).c_str());
    }
    return 1;
}

std::string
requireKey(const Spec &args, const std::string &key)
{
    const std::string value = args.text(key, "");
    if (value.empty()) {
        throw ConfigError(
            detail::concat(args.name, ": missing required ", key, "=FILE"));
    }
    return value;
}

int
record(const Spec &args)
{
    args.rejectUnknownKeys(
        {"out", "workload", "radix", "torus", "cycles", "rate", "seed"});
    const std::string out = requireKey(args, "out");
    const std::string spec = args.text("workload", "uniform");

    network::NetworkConfig cfg;
    cfg.radix = args.integer<std::int32_t>("radix", 8);
    cfg.torus = args.boolean("torus", false);
    cfg.policy = network::PolicyKind::None;

    const Cycle cycles = args.count("cycles", 50000);
    network::Network net(cfg);
    workload::WorkloadContext context{
        net.topology(),
        args.number("rate", 1.0, network::kMinInjectionRate,
                    network::maxInjectionRate(cfg)),
        args.count("seed", 12345), traffic::TwoLevelParams{}};
    const auto generator = workload::buildWorkload(spec, context);
    std::shared_ptr<const traffic::PacketStream> stream;
    if (generator->wantsDeliveries()) {
        traffic::TraceRecorder recorder(*generator);
        net.attachTraffic(recorder);
        net.run(0, cycles);
        stream = recorder.finish();
    } else {
        stream =
            traffic::PacketStream::record(*generator, cyclesToTicks(cycles));
    }

    traffic::saveAnyTrace(
        *stream, out, static_cast<std::uint32_t>(net.topology().numNodes()));
    std::printf("recorded %zu packets over %llu cycles of '%s' -> %s\n",
                stream->size(), static_cast<unsigned long long>(cycles),
                spec.c_str(), out.c_str());
    return 0;
}

int
convert(const Spec &args)
{
    args.rejectUnknownKeys({"in", "out", "nodes"});
    const std::string in = requireKey(args, "in");
    const std::string out = requireKey(args, "out");
    const auto nodes = args.integer<std::uint32_t>("nodes", 0);

    const auto stream = traffic::loadAnyTrace(in);
    traffic::saveAnyTrace(*stream, out, nodes);
    std::printf("converted %zu entries: %s -> %s\n", stream->size(),
                in.c_str(), out.c_str());
    return 0;
}

int
inspect(const Spec &args)
{
    args.rejectUnknownKeys({"in"});
    const std::string in = requireKey(args, "in");

    std::unique_ptr<const traffic::PacketStream> csv;
    std::unique_ptr<traffic::PacketCursor> cursor;
    if (traffic::isBinaryTracePath(in)) {
        auto file = std::make_unique<traffic::DvstCursor>(in);
        std::printf("format:       binary (version %u)\n",
                    static_cast<unsigned>(traffic::DvstCursor::kVersion));
        std::printf("header nodes: %u%s\n", file->headerNodes(),
                    file->headerNodes() == 0 ? " (unknown)" : "");
        cursor = std::move(file);
    } else {
        std::printf("format:       CSV\n");
        csv = traffic::loadAnyTrace(in);
        cursor = csv->cursor();
    }

    std::uint64_t entries = 0;
    std::uint64_t afterStep = 0;
    Tick first = 0;
    Tick last = 0;
    NodeId maxNode = -1;
    bool extended = false;
    std::map<std::uint8_t, std::uint64_t> perClass;
    for (traffic::StreamPacket p; cursor->next(p); ++entries) {
        const traffic::PacketRequest &r = p.request;
        first = entries == 0 ? p.when : first;
        last = p.when;
        maxNode = std::max({maxNode, r.src, r.dst});
        ++perClass[r.trafficClass];
        extended = extended || r.sizeFlits != 0 || r.trafficClass != 0;
        afterStep += p.afterStep ? 1 : 0;
    }

    std::printf("entries:      %llu\n",
                static_cast<unsigned long long>(entries));
    if (entries == 0)
        return 0;
    std::printf("max node id:  %d\n", maxNode);
    std::printf("tick span:    %llu .. %llu (%.1f cycles)\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(last),
                static_cast<double>(last - first) /
                    static_cast<double>(kRouterClockPeriod));
    std::printf("extended:     %s\n",
                extended ? "yes (per-packet size/class)"
                         : "no (default size, class 0)");
    std::printf("after-step:   %llu entries\n",
                static_cast<unsigned long long>(afterStep));
    for (const auto &[cls, count] : perClass) {
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
        // "trace_tool <command>" stands in for argv[0]: the keys are the
        // tokens after the subcommand, and messages name both.
        std::string name = "trace_tool " + command;
        std::vector<char *> tokens(argv + 1, argv + argc);
        tokens.front() = name.data();
        const Spec args =
            Spec::fromArgs(static_cast<int>(tokens.size()), tokens.data());
        if (command == "record")
            return record(args);
        if (command == "convert")
            return convert(args);
        if (command == "inspect")
            return inspect(args);
    } catch (const ConfigError &e) {
        return reportFatal(e);
    }
    std::fprintf(stderr, "trace_tool: unknown command '%s'\n",
                 command.c_str());
    return usage();
}
