/**
 * @file
 * Fig. 3: link-utilization profile of one tracked link, sampled every
 * H = 50 cycles, at four network loads from light (a) to congested (d).
 *
 * The paper tracks one link whose downstream router congests at high
 * load.  The two-level workload places load unevenly, so we profile
 * every channel, pick the link whose downstream input buffer is the most
 * contended in the congested run, and report that same link across all
 * four loads (the task placement is seed-identical across runs, so the
 * link identity is comparable).
 *
 * Reproduction target (Section 3.1): LU rises with load (a->c), then
 * *dips* under congestion (d) as free downstream buffers become the
 * binding constraint — the observation that motivates the BU litmus.
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
        "Figure 3",
        "link utilization histograms at rising load (H=50), DVS off",
        opts);

    const std::vector<double> rates{0.4, 1.2, 2.0, 5.0};
    const std::vector<const char *> labels{
        "(a) light", "(b) moderate", "(c) near saturation",
        "(d) congested"};

    // Tracked link: hot near saturation (run (c)) and showing the
    // paper's congestion signature at the top load (run (d)).
    const bench::TrackedLink link(opts, rates);
    const auto &chan = link.channel();
    std::printf("\ntracked link: %d -> %d (most congested downstream "
                "buffer at the top load)\n", chan.src, chan.dst);

    Table summary({"load", "rate (pkt/cyc)", "mean LU", "mean BU",
                   "windows"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &probe = link.probe(i);
        std::printf("\n%s  rate=%.1f pkt/cycle\n", labels[i], rates[i]);
        std::fputs(probe.linkUtilHist().render().c_str(), stdout);
        summary.addRow({labels[i], Table::num(rates[i], 1),
                        Table::num(probe.meanLinkUtil(), 3),
                        Table::num(probe.meanBufferUtil(), 3),
                        Table::num(probe.windows())});
    }

    std::printf("\nsummary (paper shape: LU rises a->c, dips in d):\n");
    bench::printTable(summary, opts);
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
