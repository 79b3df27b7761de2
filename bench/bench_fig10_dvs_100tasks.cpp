/**
 * @file
 * Fig. 10: network latency/throughput (a) and normalized power (b) with
 * and without history-based DVS, 100 concurrent tasks, 1 ms mean task
 * duration, 10 us voltage / 100-cycle frequency transitions.
 *
 * Reproduction targets (Section 4.4.1): ~10.8% zero-load latency
 * increase, ~15.2% average pre-saturation latency increase, < 2.5%
 * throughput loss, power savings up to ~6.3x (~4.6x average).
 */

#include "bench_util.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate_lo", "rate_hi"});
    bench::printHeader(
        "Figure 10",
        "latency/throughput and normalized power, DVS vs no-DVS, "
        "100 tasks", opts);
    bench::runDvsComparison(opts, 100.0, bench::defaultRates(opts));
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
