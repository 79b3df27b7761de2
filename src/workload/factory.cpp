#include "workload/factory.hpp"

#include <algorithm>
#include <limits>

#include "common/fatal.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/trace.hpp"
#include "workload/cmp_workload.hpp"

namespace dvsnet::workload
{

namespace
{

/** `base` with a two-level spec's keys applied.  @throws ConfigError on
 *  a malformed value; range checks, NaN included, are
 *  TwoLevelParams::validate()'s, which names the field. */
traffic::TwoLevelParams
applyTwoLevelKeys(const Spec &spec, traffic::TwoLevelParams base)
{
    base.avgConcurrentTasks =
        spec.number("tasks", base.avgConcurrentTasks);
    if (spec.find("locality_radius") != nullptr) {
        // Clamp before narrowing so huge values stay huge (and valid)
        // and negative ones stay invalid.
        base.localityRadius = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(
                spec.integer<std::int64_t>("locality_radius", 0), -1,
                std::numeric_limits<std::int32_t>::max()));
    }
    base.pLocal = spec.number("p_local", base.pLocal);
    base.perPacketDestination =
        spec.boolean("per_packet_dest", base.perPacketDestination);
    return base;
}

std::unique_ptr<traffic::TrafficGenerator>
buildTwoLevel(const Spec &spec, const WorkloadContext &ctx)
{
    traffic::TwoLevelParams p = ctx.twoLevel;
    p.networkInjectionRate = ctx.injectionRate;
    p.seed = ctx.seed;
    // The constructor runs TwoLevelParams::validate() on the result.
    return std::make_unique<traffic::TwoLevelWorkload>(
        ctx.topo, applyTwoLevelKeys(spec, p));
}

std::unique_ptr<traffic::TrafficGenerator>
buildPattern(traffic::Pattern pattern, const WorkloadContext &ctx)
{
    const double perNode =
        ctx.injectionRate / static_cast<double>(ctx.topo.numNodes());
    return std::make_unique<traffic::PatternTraffic>(ctx.topo, pattern,
                                                     perNode, ctx.seed);
}

std::unique_ptr<traffic::TrafficGenerator>
buildTrace(const Spec &spec, const WorkloadContext &ctx)
{
    const auto *path = spec.find("path");
    if (path == nullptr || path->empty()) {
        throw ConfigError(
            "workload 'trace' requires a path key (trace:path=FILE)");
    }
    if (traffic::isBinaryTracePath(*path)) {
        // Stream straight from disk.  The header's node count may be 0
        // (unknown) or another network's, so each entry is checked
        // against this one's as it is read.
        return std::make_unique<traffic::ReplayTraffic>(*path,
                                                        ctx.topo.numNodes());
    }
    return std::make_unique<traffic::ReplayTraffic>(
        traffic::loadAnyTrace(*path, ctx.topo.numNodes()));
}

std::unique_ptr<traffic::TrafficGenerator>
buildCmp(const Spec &spec, const WorkloadContext &ctx)
{
    CmpParams p;
    p.packetRate = ctx.injectionRate;
    p.seed = ctx.seed;
    // Integers are bounded by their field's type, so nothing wraps
    // before CmpParams::validate() checks the range.
    p.window = spec.integer("window", p.window);
    p.requestFlits = spec.integer("request_flits", p.requestFlits);
    p.replyFlits = spec.integer("reply_flits", p.replyFlits);
    p.homeLatencyCycles = spec.integer("home_latency", p.homeLatencyCycles);
    p.hotNodes = spec.integer("hot_nodes", p.hotNodes);
    p.pHot = spec.number("p_hot", p.pHot);
    return std::make_unique<CmpWorkload>(ctx.topo, p);
}

void
registerBuiltins(WorkloadRegistry &registry)
{
    registry.add("two-level",
                 "the paper's two-level self-similar model (Section 4.3); "
                 "tasks in [1, 10000] with duration/tasks >= 1 cycle, "
                 "locality_radius >= 1, p_local in [0, 1]",
                 {"tasks", "locality_radius", "p_local", "per_packet_dest"},
                 buildTwoLevel);

    // Open-loop pattern baselines, under traffic::patternName; per-node
    // Poisson rate chosen so the aggregate matches the experiment's
    // injection rate.
    static const struct
    {
        traffic::Pattern pattern;
        const char *description;
    } kPatterns[] = {
        {traffic::Pattern::UniformRandom,
         "uniform-random destinations, per-node Poisson injection"},
        {traffic::Pattern::Transpose, "(x,y) -> (y,x) permutation"},
        {traffic::Pattern::BitComplement, "node -> ~node permutation"},
        {traffic::Pattern::BitReverse, "bit-reversal permutation"},
        {traffic::Pattern::Shuffle, "perfect-shuffle permutation"},
        {traffic::Pattern::Tornado, "half-way around each dimension"},
        {traffic::Pattern::Neighbor, "+1 in dimension 0"},
    };
    for (const auto &entry : kPatterns) {
        const traffic::Pattern pattern = entry.pattern;
        registry.add(traffic::patternName(pattern), entry.description, {},
                     [pattern](const Spec &, const WorkloadContext &ctx) {
                         return buildPattern(pattern, ctx);
                     });
    }

    registry.add("trace",
                 "replay a recorded packet trace (.dvst binary or CSV)",
                 {"path"}, buildTrace);

    registry.add("cmp",
                 "closed-loop CMP request/reply coherence traffic",
                 {"window", "request_flits", "reply_flits", "home_latency",
                  "hot_nodes", "p_hot"},
                 buildCmp);
}

} // namespace

WorkloadRegistry &
workloadRegistry()
{
    static WorkloadRegistry registry = [] {
        WorkloadRegistry r("workload");
        registerBuiltins(r);
        return r;
    }();
    return registry;
}

std::vector<std::string>
validateWorkloadSpec(const std::string &text,
                     const traffic::TwoLevelParams &twoLevel)
{
    try {
        const Spec spec = Spec::parse(text);
        auto problems = workloadRegistry().validate(spec);
        if (!problems.empty())
            return problems;
        if (spec.name == "two-level")
            return applyTwoLevelKeys(spec, twoLevel).validate();
        return twoLevel.validate();
    } catch (const ConfigError &e) {
        return {e.what()};
    }
}

std::unique_ptr<traffic::TrafficGenerator>
buildWorkload(const std::string &text, const WorkloadContext &context)
{
    auto generator = workloadRegistry().build(Spec::parse(text), context);
    DVSNET_ASSERT(generator != nullptr, "workload builder returned null");
    return generator;
}

} // namespace dvsnet::workload
