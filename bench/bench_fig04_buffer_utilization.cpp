/**
 * @file
 * Fig. 4: input-buffer-utilization profile of the buffers downstream of
 * the Fig. 3 tracked link, at three loads (sampled every H = 50 cycles).
 *
 * Reproduction target: BU stays low and nearly flat from light to high
 * load (changing by ~0.1 where LU changes by ~0.8), then rises sharply
 * under congestion — an indicator function for the congestion point,
 * but insensitive to load nuance.
 */

#include <cstdio>

#include <vector>

#include "bench_util.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv, bench::kDvsOffDefaults);
    bench::rejectUnknownKeys(opts);
    bench::printHeader(
        "Figure 4",
        "input buffer utilization histograms at rising load (H=50), "
        "DVS off", opts);

    const std::vector<double> rates{0.4, 2.0, 5.0};
    const std::vector<const char *> labels{"(a) light", "(b) high",
                                           "(c) congested"};

    const bench::TrackedLink link(opts, rates);
    const auto &chan = link.channel();
    std::printf("\ntracked link: %d -> %d (same selection as Figure 3)\n",
                chan.src, chan.dst);

    Table summary({"load", "rate (pkt/cyc)", "mean BU", "mean LU"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &probe = link.probe(i);
        std::printf("\n%s  rate=%.1f pkt/cycle\n", labels[i], rates[i]);
        std::fputs(probe.bufferUtilHist().render().c_str(), stdout);
        summary.addRow({labels[i], Table::num(rates[i], 1),
                        Table::num(probe.meanBufferUtil(), 3),
                        Table::num(probe.meanLinkUtil(), 3)});
    }

    std::printf("\nsummary (paper shape: BU flat a->b, sharp rise in c; "
                "BU moves ~0.1 where LU\nmoves ~0.5+):\n");
    bench::printTable(summary, opts);
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
