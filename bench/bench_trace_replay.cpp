/**
 * @file
 * Trace record -> binary/CSV round-trip -> replay, on the paper's 8x8
 * mesh.
 *
 * Records a workload into a packet trace, writes it in both on-disk
 * formats, replays each through an identically configured network, and
 * verifies the replays are bit-identical to each other and to a live
 * run of the workload — the property that makes traces usable for
 * policy comparisons under *literally* the same packet sequence, not
 * merely the same seed.  A fourth run replays the binary trace under
 * history-DVS to demonstrate exactly that.
 *
 * An open-loop workload is recorded with its generator alone
 * (traffic::PacketStream::record), which marks the packets created on a
 * router clock edge after that edge's step; replays pull the trace at
 * the network's clock edges and honour those marks.  A closed-loop one
 * ("cmp") is recorded from a live run; its replay is open loop, so only
 * the two replays are compared.
 *
 * Also reports the binary format's size advantage (the packet stream's
 * varint records vs CSV text).
 *
 * `--workload <spec>` selects what gets recorded (default: the paper's
 * two-level model); `rate=R` sets the target injection rate.
 */

#include <cstdio>
#include <filesystem>

#include "bench_util.hpp"
#include "common/fatal.hpp"
#include "traffic/trace.hpp"
#include "workload/factory.hpp"

using namespace dvsnet;

namespace
{

/** One measured replay run; asserts nothing, just executes. */
network::RunResults
runReplay(const network::ExperimentSpec &spec,
          traffic::TrafficGenerator &generator)
{
    network::Network net(spec.network);
    net.attachTraffic(generator);
    return net.run(spec.warmup, spec.measure);
}

/** Bit identity: equal RunResults JSON, every field to the last bit. */
void
expectIdentical(const char *what, const network::RunResults &a,
                const network::RunResults &b)
{
    if (network::toJson(a).dump() != network::toJson(b).dump()) {
        DVSNET_FATAL(what, " diverged: created ", b.packetsCreated, " vs ",
                     a.packetsCreated, ", delivered ", b.packetsDelivered,
                     " vs ", a.packetsDelivered, ", avg latency ",
                     b.avgLatencyCycles, " vs ", a.avgLatencyCycles,
                     ", avg power ", b.avgPowerW, " vs ", a.avgPowerW);
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv, bench::kDvsOffDefaults);
    bench::rejectUnknownKeys(opts, {"rate", "trace_prefix"});
    bench::printHeader("Trace replay",
                       "record -> CSV/binary round-trip -> lockstep "
                       "replay, 8x8 mesh",
                       opts);

    network::ExperimentSpec spec = bench::paperSpec(opts);
    spec.network.policy = network::PolicyKind::None;
    const double rate = bench::rateOption(opts, "rate", 1.0);

    const std::string prefix =
        opts.raw.text("trace_prefix", "bench_trace_replay");
    const std::string csvPath = prefix + ".trace.csv";
    const std::string dvstPath = prefix + ".trace.dvst";

    // 1. Record the workload and run it live.
    std::shared_ptr<const traffic::PacketStream> trace;
    network::RunResults original;
    NodeId numNodes = 0;
    bool openLoop = true;
    {
        network::Network net(spec.network);
        numNodes = net.topology().numNodes();
        workload::WorkloadContext context{net.topology(), rate, opts.seed,
                                          spec.workload};
        const auto generator =
            workload::buildWorkload(spec.workloadSpec, context);
        openLoop = !generator->wantsDeliveries();
        if (openLoop) {
            const auto recording =
                workload::buildWorkload(spec.workloadSpec, context);
            trace = traffic::PacketStream::record(
                *recording, cyclesToTicks(spec.warmup + spec.measure));
            net.attachTraffic(*generator);
            original = net.run(spec.warmup, spec.measure);
        } else {
            traffic::TraceRecorder recorder(*generator);
            net.attachTraffic(recorder);
            original = net.run(spec.warmup, spec.measure);
            trace = recorder.finish();
        }
    }
    if (trace->size() == 0)
        DVSNET_FATAL("recorded run generated no packets");

    // 2. Both on-disk forms.
    traffic::saveAnyTrace(*trace, csvPath);
    traffic::saveAnyTrace(*trace, dvstPath,
                          static_cast<std::uint32_t>(numNodes));
    const auto csvBytes = std::filesystem::file_size(csvPath);
    const auto dvstBytes = std::filesystem::file_size(dvstPath);

    // 3. Replay each format through an identical network; the replays
    // must agree with each other and, for open-loop traffic, with the
    // live run, bit for bit.
    traffic::ReplayTraffic csvReplay(traffic::loadAnyTrace(csvPath,
                                                           numNodes));
    const auto csvResults = runReplay(spec, csvReplay);
    traffic::ReplayTraffic binaryReplay(dvstPath, numNodes);
    const auto binaryResults = runReplay(spec, binaryReplay);
    if (openLoop) {
        expectIdentical("CSV replay vs the live run", original, csvResults);
        expectIdentical("binary replay vs the live run", original,
                        binaryResults);
    }
    expectIdentical("CSV and binary replays", csvResults, binaryResults);

    // 4. The payoff: the same packets under history-DVS.
    network::ExperimentSpec dvsSpec = spec;
    dvsSpec.network.policy = network::PolicyKind::History;
    traffic::ReplayTraffic dvsReplay(dvstPath, numNodes);
    const auto dvsResults = runReplay(dvsSpec, dvsReplay);

    const struct
    {
        const char *label;
        const network::RunResults *results;
    } runs[] = {{"recorded (live workload)", &original},
                {"CSV replay", &csvResults},
                {"binary replay", &binaryResults},
                {"binary replay + history-DVS", &dvsResults}};
    Table t({"run", "delivered", "avg lat", "thr", "norm power"});
    for (const auto &run : runs) {
        const auto &r = *run.results;
        t.addRow({run.label, std::to_string(r.packetsDelivered),
                  Table::num(r.avgLatencyCycles, 2),
                  Table::num(r.throughputPktsPerCycle, 3),
                  Table::num(r.normalizedPower, 3)});
        Json entry = Json::object();
        entry["type"] = Json("point");
        entry["label"] = Json(run.label);
        entry["result"] = network::toJson(r);
        bench::recordResult(std::move(entry));
    }
    bench::printTable(t, opts);

    const double bytesPerEntryCsv =
        static_cast<double>(csvBytes) / static_cast<double>(trace->size());
    const double bytesPerEntryBin =
        static_cast<double>(dvstBytes) / static_cast<double>(trace->size());
    Table f({"format", "bytes", "bytes/entry", "vs CSV"});
    f.addRow({"CSV", std::to_string(csvBytes),
              Table::num(bytesPerEntryCsv, 2), "1.00x"});
    f.addRow({"binary (.dvst)", std::to_string(dvstBytes),
              Table::num(bytesPerEntryBin, 2),
              Table::num(static_cast<double>(csvBytes) /
                             static_cast<double>(dvstBytes),
                         2) +
                  "x"});
    std::size_t afterStep = 0;
    const auto cursor = trace->cursor();
    for (traffic::StreamPacket p; cursor->next(p);)
        afterStep += p.afterStep ? 1 : 0;
    std::printf("\ntrace: %zu entries, %zu created after a clock edge's "
                "step\n",
                trace->size(), afterStep);
    bench::printTable(f, opts);

    Json files = Json::object();
    files["type"] = Json("trace_files");
    files["entries"] = Json(static_cast<std::uint64_t>(trace->size()));
    files["after_step_entries"] =
        Json(static_cast<std::uint64_t>(afterStep));
    files["csv_bytes"] = Json(static_cast<std::uint64_t>(csvBytes));
    files["binary_bytes"] = Json(static_cast<std::uint64_t>(dvstBytes));
    files["compression_vs_csv"] = Json(static_cast<double>(csvBytes) /
                                       static_cast<double>(dvstBytes));
    bench::recordResult(std::move(files));

    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
