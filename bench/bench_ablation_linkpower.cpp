/**
 * @file
 * Link-power backend ablation: History vs DynamicThreshold vs None on
 * the paper's 8x8 mesh under both the table backend (the paper's fitted
 * P(V, f) law) and the data-dependent toggle backend.
 *
 * The paper ranks DVS policies assuming link power depends only on the
 * operating point.  Under the toggle backend, the dynamic share of link
 * energy follows the payload's bit activity instead — slowing a link
 * stretches time-at-voltage but does not change how many bits toggle.
 * This bench asks the ROADMAP's question directly: does history-based
 * DVS keep its energy ranking when energy depends on what the flits
 * carry, not just how fast the links run?
 *
 * `--link-power` intentionally has no effect here (both backends are
 * swept); all other repo-wide flags apply.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/fatal.hpp"

using namespace dvsnet;

int
main(int argc, char **argv)
try {
    const auto opts = bench::parseOptions(argc, argv);
    bench::rejectUnknownKeys(opts, {"rate_lo", "rate_hi"});
    bench::printHeader(
        "link-power ablation",
        "History vs DynamicThreshold vs None under table and toggle "
        "link-power backends, 8x8 mesh",
        opts);

    const struct
    {
        const char *label;
        network::PolicyKind policy;
    } kPolicies[] = {
        {"history", network::PolicyKind::History},
        {"dyn-threshold", network::PolicyKind::DynamicThreshold},
        {"none", network::PolicyKind::None},
    };
    const char *kBackends[] = {"table", "toggle"};

    // Pre-saturation rates: the energy ranking question is about the
    // operating region where all three policies deliver the offered
    // load, not about saturated throughput differences.
    const auto rates = bench::defaultRates(opts, 0.2, 1.6);

    std::vector<network::ExperimentSpec> specs;
    for (const char *backend : kBackends) {
        for (const auto &p : kPolicies) {
            network::ExperimentSpec spec = bench::paperSpec(opts);
            spec.network.policy = p.policy;
            spec.network.linkPowerSpec = backend;
            specs.push_back(std::move(spec));
        }
    }
    const auto series = bench::runSweeps(opts, specs, rates);

    // Per-(backend, policy) window-energy means over the sweep.
    struct Row
    {
        const char *backend;
        const char *policy;
        double meanEnergyJ = 0.0;
        double meanNormPower = 0.0;
        double meanLatency = 0.0;
        double flitShare = 0.0;  ///< per-flit fraction of total energy
    };
    std::vector<Row> rows;
    for (std::size_t b = 0; b < 2; ++b) {
        for (std::size_t p = 0; p < 3; ++p) {
            const auto &sweep = series[b * 3 + p];
            Row row{kBackends[b], kPolicies[p].label};
            double flitJ = 0.0;
            for (const auto &pt : sweep) {
                row.meanEnergyJ += pt.results.totalEnergyJ;
                row.meanNormPower += pt.results.normalizedPower;
                row.meanLatency += pt.results.avgLatencyCycles;
                flitJ += pt.results.flitEnergyJ;
            }
            const double n = static_cast<double>(sweep.size());
            row.flitShare =
                row.meanEnergyJ > 0.0 ? flitJ / row.meanEnergyJ : 0.0;
            row.meanEnergyJ /= n;
            row.meanNormPower /= n;
            row.meanLatency /= n;
            rows.push_back(row);
        }
    }

    auto sci = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3e", v);
        return std::string(buf);
    };
    Table t({"backend", "policy", "mean energy (J)", "norm power",
             "mean latency", "flit-energy share"});
    for (const auto &row : rows) {
        t.addRow({row.backend, row.policy, sci(row.meanEnergyJ),
                  Table::num(row.meanNormPower, 3),
                  Table::num(row.meanLatency, 1),
                  Table::num(row.flitShare, 3)});
    }
    bench::printTable(t, opts);

    // Energy ranking per backend (least energy first) and the verdict:
    // does switching the backend reorder the policies?
    auto ranking = [&rows](const char *backend) {
        std::vector<const Row *> order;
        for (const auto &row : rows) {
            if (row.backend == backend)
                order.push_back(&row);
        }
        std::sort(order.begin(), order.end(),
                  [](const Row *a, const Row *b) {
                      return a->meanEnergyJ < b->meanEnergyJ;
                  });
        return order;
    };
    const auto tableOrder = ranking(kBackends[0]);
    const auto toggleOrder = ranking(kBackends[1]);
    bool sameRanking = true;
    for (std::size_t i = 0; i < tableOrder.size(); ++i)
        sameRanking &= tableOrder[i]->policy == toggleOrder[i]->policy;

    std::printf("\nenergy ranking (least energy first):\n");
    for (std::size_t b = 0; b < 2; ++b) {
        const auto &order = b == 0 ? tableOrder : toggleOrder;
        std::printf("  %-6s:", kBackends[b]);
        for (std::size_t i = 0; i < order.size(); ++i) {
            std::printf("%s %s (%.3g J)", i == 0 ? "" : " <",
                        order[i]->policy, order[i]->meanEnergyJ);
        }
        std::printf("\n");
    }
    std::printf("verdict: policy energy ranking %s when link energy "
                "becomes data-dependent\n",
                sameRanking ? "is unchanged" : "CHANGES");

    Json verdict = Json::object();
    verdict["type"] = Json("ranking");
    verdict["same_ranking"] = Json(sameRanking);
    Json orders = Json::object();
    for (std::size_t b = 0; b < 2; ++b) {
        const auto &order = b == 0 ? tableOrder : toggleOrder;
        Json list = Json::array();
        for (const auto *row : order)
            list.push(Json(row->policy));
        orders[kBackends[b]] = std::move(list);
    }
    verdict["order"] = std::move(orders);
    bench::recordResult(std::move(verdict));

    bench::finishReport(opts);
    return 0;
} catch (const ConfigError &e) {
    return reportFatal(e);
}
