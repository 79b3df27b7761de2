/**
 * @file
 * Fig. 5: input-buffer-age profile (Eq. 4) of the buffers downstream of
 * the Fig. 3 tracked link, at three loads (sampled every H = 50 cycles).
 *
 * Reproduction target: like BU, age stays small through high load and
 * rises dramatically once the network congests.  The paper selects BU
 * over BA for the policy because both behave alike and BU is already
 * available from credit state.
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
        "Figure 5",
        "input buffer age profile (cycles) at rising load (H=50), "
        "DVS off", opts);

    const std::vector<double> rates{0.4, 2.0, 5.0};
    const std::vector<const char *> labels{"(a) light", "(b) high",
                                           "(c) congested"};

    const bench::TrackedLink link(opts, rates);
    const auto &chan = link.channel();
    std::printf("\ntracked link: %d -> %d (same selection as Figure 3)\n",
                chan.src, chan.dst);

    Table summary({"load", "rate (pkt/cyc)", "mean BA (cycles)",
                   "mean BU"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &probe = link.probe(i);
        std::printf("\n%s  rate=%.1f pkt/cycle\n", labels[i], rates[i]);
        std::fputs(probe.bufferAgeHist().render().c_str(), stdout);
        summary.addRow({labels[i], Table::num(rates[i], 1),
                        Table::num(probe.meanBufferAge(), 1),
                        Table::num(probe.meanBufferUtil(), 3)});
    }

    std::printf("\nsummary (paper shape: BA small a->b, dramatic rise "
                "in c):\n");
    bench::printTable(summary, opts);
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
