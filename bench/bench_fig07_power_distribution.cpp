/**
 * @file
 * Fig. 7: router power consumption distribution.
 *
 * The paper characterized a synthesized router in TSMC 0.25 um with
 * Synopsys Power Compiler; we reproduce the published breakdown from its
 * stated constants (links 82.4% == 6.4 W, allocators 81 mW) — see
 * power/router_power.hpp for how the remaining slices are estimated.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "power/router_power.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    // Nothing is simulated: only the output keys are read.
    opts.raw.rejectUnknownKeys({"quick", "csv", "json"});
    bench::printHeader("Figure 7", "router power consumption distribution",
                       opts);

    const auto profile = power::RouterPowerProfile::paper();
    Table t({"component", "power (W)", "fraction (%)"});
    for (const auto &s : profile.slices()) {
        t.addRow({s.component, Table::num(s.watts, 3),
                  Table::num(s.fraction * 100.0, 1)});
    }
    t.addRow({"total", Table::num(profile.totalW(), 3), "100.0"});
    bench::printTable(t, opts);

    std::printf("\npaper: links take 82.4%% of router power; "
                "measured here: %.1f%%\n",
                profile.linkFraction() * 100.0);
    std::printf("paper conclusion adopted by the model: router-core power "
                "is insensitive to link DVS,\nso the evaluation counts "
                "link power only.\n");
    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
