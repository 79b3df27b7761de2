#include "network/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fatal.hpp"
#include "workload/factory.hpp"

namespace dvsnet::network
{

Json
toJson(const ExperimentSpec &spec)
{
    // Hashed into the search's evaluation key, like the network echo.
    static_assert(sizeof(ExperimentSpec) == 368,
                  "ExperimentSpec changed: echo every field it has here");
    static_assert(sizeof(traffic::TwoLevelParams) == 112,
                  "TwoLevelParams changed: echo every field it has here");
    static_assert(sizeof(traffic::OnOffParams) == 32,
                  "OnOffParams changed: echo every field it has here");

    Json j = Json::object();
    j["network"] = toJson(spec.network);
    Json onOff = Json::object();
    onOff["on_shape"] = Json(spec.workload.onOff.onShape);
    onOff["off_shape"] = Json(spec.workload.onOff.offShape);
    onOff["mean_on_cycles"] = Json(spec.workload.onOff.meanOnCycles);
    onOff["mean_off_cycles"] = Json(spec.workload.onOff.meanOffCycles);
    Json wl = Json::object();
    wl["on_off"] = std::move(onOff);
    wl["avg_concurrent_tasks"] = Json(spec.workload.avgConcurrentTasks);
    wl["mean_task_duration_cycles"] =
        Json(spec.workload.meanTaskDurationCycles);
    wl["duration_spread"] = Json(spec.workload.durationSpread);
    wl["network_injection_rate"] = Json(spec.workload.networkInjectionRate);
    wl["rate_spread"] = Json(spec.workload.rateSpread);
    wl["sources_per_task"] =
        Json(static_cast<std::int64_t>(spec.workload.sourcesPerTask));
    wl["locality_radius"] =
        Json(static_cast<std::int64_t>(spec.workload.localityRadius));
    wl["p_local"] = Json(spec.workload.pLocal);
    wl["per_packet_destination"] = Json(spec.workload.perPacketDestination);
    // Full-range uint64; JSON numbers are lossy past 2^53, so decimal string.
    wl["seed"] = Json(std::to_string(spec.workload.seed));
    j["workload"] = std::move(wl);
    j["workload_spec"] = Json(spec.workloadSpec);
    j["warmup_cycles"] = Json(static_cast<std::uint64_t>(spec.warmup));
    j["measure_cycles"] = Json(static_cast<std::uint64_t>(spec.measure));
    return j;
}

Json
toJson(const SweepPoint &point)
{
    Json j = Json::object();
    j["injection_rate"] = Json(point.injectionRate);
    j["results"] = toJson(point.results);
    return j;
}

std::vector<std::string>
ExperimentSpec::validate() const
{
    std::vector<std::string> problems = network.validate();
    if (measure < 1)
        problems.push_back("measurement window must be >= 1 cycle");
    constexpr Cycle kMaxRunCycles =
        std::numeric_limits<Tick>::max() / kRouterClockPeriod;
    if (measure > kMaxRunCycles || warmup > kMaxRunCycles - measure) {
        problems.push_back(detail::concat(
            "warm-up ", warmup, " + measurement ", measure,
            " cycles overflows 64-bit ticks (at most ", kMaxRunCycles,
            " cycles)"));
    }
    // Covers the two-level block too, with a `two-level` spec string's
    // keys applied over it.
    for (auto &problem :
         workload::validateWorkloadSpec(workloadSpec, workload)) {
        problems.push_back(std::move(problem));
    }
    return problems;
}

double
maxInjectionRate(const NetworkConfig &network)
{
    return std::pow(static_cast<double>(network.radix),
                    static_cast<double>(network.dims));
}

std::string
injectionRateProblem(const NetworkConfig &network, double rate)
{
    if (!(rate > 0.0) || !std::isfinite(rate))
        return "injection rate must be positive and finite";
    if (rate > maxInjectionRate(network)) {
        return detail::concat("injection rate ", rate,
                              " is above one packet per node per cycle (",
                              maxInjectionRate(network), " on a ",
                              network.radix, "^", network.dims, " network)");
    }
    return {};
}

std::vector<double>
rateGrid(double lo, double hi, std::size_t n)
{
    if (n > kMaxSweepPoints) {
        throw ConfigError(detail::concat("points ", n, " exceed the cap of ",
                                         kMaxSweepPoints, " per sweep"));
    }
    DVSNET_ASSERT(n >= 2 && hi > lo && lo > 0, "bad rate grid");
    std::vector<double> rates(n);
    for (std::size_t i = 0; i < n; ++i) {
        rates[i] = lo + (hi - lo) * static_cast<double>(i) /
                                    static_cast<double>(n - 1);
    }
    return rates;
}

double
saturationThroughput(const std::vector<SweepPoint> &series,
                     double zeroLoadLatency)
{
    DVSNET_ASSERT(!series.empty(), "empty sweep");
    const double limit = 2.0 * zeroLoadLatency;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].results.avgLatencyCycles > limit) {
            if (i == 0)
                return series[0].results.throughputPktsPerCycle;
            // Interpolate throughput between the bracketing points on
            // the latency axis.
            const auto &lo = series[i - 1].results;
            const auto &hi = series[i].results;
            const double t =
                (limit - lo.avgLatencyCycles) /
                (hi.avgLatencyCycles - lo.avgLatencyCycles);
            return lo.throughputPktsPerCycle +
                   t * (hi.throughputPktsPerCycle -
                        lo.throughputPktsPerCycle);
        }
    }
    return series.back().results.throughputPktsPerCycle;
}

DvsComparison
compareDvs(const std::vector<SweepPoint> &baseline,
           const std::vector<SweepPoint> &dvs, double zeroLoadBase,
           double zeroLoadDvs)
{
    DVSNET_ASSERT(baseline.size() == dvs.size() && !baseline.empty(),
                  "sweeps must be matched");

    DvsComparison cmp;
    cmp.zeroLoadBase = zeroLoadBase;
    cmp.zeroLoadDvs = zeroLoadDvs;
    cmp.zeroLoadIncreasePct =
        (zeroLoadDvs / zeroLoadBase - 1.0) * 100.0;
    cmp.saturationBase = saturationThroughput(baseline, zeroLoadBase);
    cmp.saturationDvs = saturationThroughput(dvs, zeroLoadDvs);
    cmp.throughputLossPct =
        (1.0 - cmp.saturationDvs / cmp.saturationBase) * 100.0;
    cmp.topRateThroughputLossPct =
        (1.0 - dvs.back().results.throughputPktsPerCycle /
                   baseline.back().results.throughputPktsPerCycle) *
        100.0;

    // Pre-saturation averages: points where the *baseline* latency is
    // still below twice its zero-load value.
    double latencyRatioSum = 0.0;
    double savingsSum = 0.0;
    std::size_t preSat = 0;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        const auto &b = baseline[i].results;
        const auto &d = dvs[i].results;
        if (b.avgLatencyCycles > 2.0 * zeroLoadBase)
            break;
        latencyRatioSum += d.avgLatencyCycles / b.avgLatencyCycles;
        savingsSum += d.savingsFactor;
        cmp.maxSavings = std::max(cmp.maxSavings, d.savingsFactor);
        ++preSat;
    }
    if (preSat > 0) {
        cmp.preSatLatencyIncreasePct =
            (latencyRatioSum / static_cast<double>(preSat) - 1.0) * 100.0;
        cmp.avgSavings = savingsSum / static_cast<double>(preSat);
    }
    return cmp;
}

} // namespace dvsnet::network
