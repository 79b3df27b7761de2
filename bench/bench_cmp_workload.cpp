/**
 * @file
 * Closed-loop CMP workload under history-DVS vs no-DVS on the paper's
 * 8x8 mesh.
 *
 * The synthetic sweeps (Figs. 10-12) are open-loop: offered load is
 * fixed regardless of what the network does to latency.  The CMP
 * request/reply workload closes the loop — replies wait on request
 * delivery and cores stall on their outstanding-request window — so a
 * DVS policy that slows links also slows the traffic feeding them.
 * This bench sweeps target transaction demand and reports how much of
 * the open-loop power/latency trade-off survives closed-loop coupling.
 *
 * `--workload cmp:window=8,hot_nodes=4,p_hot=0.3` (or any registered
 * spec) overrides the default CMP configuration.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "common/fatal.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate_lo", "rate_hi"});
    if (opts.workload.empty())
        opts.workload = "cmp";
    bench::printHeader(
        "CMP workload",
        "closed-loop request/reply traffic, history-DVS vs no-DVS, "
        "8x8 mesh",
        opts);

    network::ExperimentSpec baseSpec = bench::paperSpec(opts);
    baseSpec.network.policy = network::PolicyKind::None;
    network::ExperimentSpec dvsSpec = baseSpec;
    dvsSpec.network.policy = network::PolicyKind::History;

    // Closed-loop saturation arrives earlier than the open-loop 2.4
    // pkts/cycle top rate: beyond the windows' capacity, demand queues
    // at the cores instead of entering the network.
    const auto rates = bench::defaultRates(opts, 0.2, 2.0);

    // One worker pool for both zero-load probes and both sweeps,
    // seeded exactly like runDvsComparison.
    exp::ExperimentRunner runner(bench::runnerOptions(opts));
    const double zeroLoadRate = 0.05;
    for (const auto *spec : {&baseSpec, &dvsSpec}) {
        exp::PointJob job;
        job.spec = *spec;
        job.injectionRate = zeroLoadRate;
        job.seed = spec->workload.seed;
        job.label = "zero-load";
        runner.submit(std::move(job));
    }
    runner.submitSweep(baseSpec, rates);
    runner.submitSweep(dvsSpec, rates);
    const auto results = bench::collectAll(runner);
    const double zeroBase = results[0].results.avgLatencyCycles;
    const double zeroDvs = results[1].results.avgLatencyCycles;

    std::vector<network::SweepPoint> base, dvs;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        base.push_back(results[2 + i].toSweepPoint());
        dvs.push_back(results[2 + rates.size() + i].toSweepPoint());
    }

    const struct
    {
        const char *label;
        const network::ExperimentSpec *spec;
        std::size_t offset;
    } sweeps[] = {{"no-dvs", &baseSpec, 2},
                  {"history-dvs", &dvsSpec, 2 + rates.size()}};
    for (std::size_t s = 0; s < 2; ++s) {
        Json probe = Json::object();
        probe["type"] = Json("point");
        probe["label"] =
            Json(std::string("zero-load-") + (s == 0 ? "base" : "dvs"));
        probe["result"] = exp::toJson(results[s]);
        bench::recordResult(std::move(probe));

        Json entry = Json::object();
        entry["type"] = Json("sweep");
        entry["label"] = Json(sweeps[s].label);
        entry["spec"] = network::toJson(*sweeps[s].spec);
        Json points = Json::array();
        for (std::size_t i = 0; i < rates.size(); ++i)
            points.push(exp::toJson(results[sweeps[s].offset + i]));
        entry["points"] = std::move(points);
        bench::recordResult(std::move(entry));
    }

    Table t({"demand", "offered base", "offered DVS", "lat base",
             "lat DVS", "thr base", "thr DVS", "norm power", "savings",
             "avg level"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &b = base[i].results;
        const auto &d = dvs[i].results;
        t.addRow({Table::num(rates[i], 2),
                  Table::num(b.offeredLoadPktsPerCycle, 2),
                  Table::num(d.offeredLoadPktsPerCycle, 2),
                  Table::num(b.avgLatencyCycles, 1),
                  Table::num(d.avgLatencyCycles, 1),
                  Table::num(b.throughputPktsPerCycle, 3),
                  Table::num(d.throughputPktsPerCycle, 3),
                  Table::num(d.normalizedPower, 3),
                  Table::num(d.savingsFactor, 2),
                  Table::num(d.avgChannelLevel, 2)});
    }
    bench::printTable(t, opts);

    const auto cmp = network::compareDvs(base, dvs, zeroBase, zeroDvs);
    std::printf("\nclosed-loop DVS cost (workload: %s):\n",
                opts.workload.c_str());
    Table s({"metric", "measured"});
    s.addRow({"zero-load latency increase",
              Table::num(cmp.zeroLoadIncreasePct, 1) + "%"});
    s.addRow({"pre-saturation latency increase",
              Table::num(cmp.preSatLatencyIncreasePct, 1) + "%"});
    s.addRow({"throughput reduction (2x-zero-load rule)",
              Table::num(cmp.throughputLossPct, 1) + "%"});
    s.addRow({"delivered-throughput loss at top demand",
              Table::num(cmp.topRateThroughputLossPct, 1) + "%"});
    s.addRow({"max power savings", Table::num(cmp.maxSavings, 2) + "x"});
    s.addRow({"avg power savings (pre-sat)",
              Table::num(cmp.avgSavings, 2) + "x"});
    bench::printTable(s, opts);

    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
