/**
 * @file
 * Fig. 11: the Fig. 10 experiment with 50 concurrent tasks.
 *
 * Reproduction targets: ~14.7% average pre-saturation latency increase,
 * < 2.5% throughput loss, up to ~6.4x savings (~4.9x average); slightly
 * lower saturation throughput than the 100-task workload due to the
 * higher traffic imbalance of fewer, fatter flows.
 */

#include "bench_util.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate_lo", "rate_hi"});
    bench::printHeader(
        "Figure 11",
        "latency/throughput and normalized power, DVS vs no-DVS, "
        "50 tasks", opts);
    bench::runDvsComparison(opts, 50.0, bench::defaultRates(opts));
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
