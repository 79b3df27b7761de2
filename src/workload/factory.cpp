#include "workload/factory.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "common/fatal.hpp"
#include "traffic/pattern_traffic.hpp"
#include "traffic/trace.hpp"
#include "workload/cmp_workload.hpp"
#include "workload/trace_binary.hpp"

namespace dvsnet::workload
{

namespace
{

double
parseDouble(const std::string &key, const std::string &value)
{
    double out = 0.0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec != std::errc{} || ptr != end) {
        throw ConfigError(detail::concat("workload key '", key,
                                         "': expected a number, got '",
                                         value, "'"));
    }
    return out;
}

std::int64_t
parseInt(const std::string &key, const std::string &value)
{
    std::int64_t out = 0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec != std::errc{} || ptr != end) {
        throw ConfigError(detail::concat("workload key '", key,
                                         "': expected an integer, got '",
                                         value, "'"));
    }
    return out;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    throw ConfigError(detail::concat("workload key '", key,
                                     "': expected true/false, got '",
                                     value, "'"));
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += ", ";
        out += item;
    }
    return out;
}

/** `base` with a two-level spec's keys applied.  @throws ConfigError on
 *  a malformed value; range checks are TwoLevelParams::validate()'s. */
traffic::TwoLevelParams
applyTwoLevelKeys(const WorkloadSpec &spec, traffic::TwoLevelParams base)
{
    if (const auto *v = spec.find("tasks"))
        base.avgConcurrentTasks = parseDouble("tasks", *v);
    if (const auto *v = spec.find("locality_radius")) {
        const std::int64_t radius = parseInt("locality_radius", *v);
        // Clamp before narrowing so huge values stay huge (and valid)
        // and negative ones stay invalid.
        base.localityRadius = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(
                radius, -1, std::numeric_limits<std::int32_t>::max()));
    }
    if (const auto *v = spec.find("p_local"))
        base.pLocal = parseDouble("p_local", *v);
    if (const auto *v = spec.find("per_packet_dest"))
        base.perPacketDestination = parseBool("per_packet_dest", *v);
    return base;
}

std::unique_ptr<traffic::TrafficGenerator>
buildTwoLevel(const WorkloadSpec &spec, const WorkloadContext &ctx)
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
buildTrace(const WorkloadSpec &spec, const WorkloadContext &ctx)
{
    const auto *path = spec.find("path");
    if (path == nullptr || path->empty()) {
        throw ConfigError(
            "workload 'trace' requires a path key (trace:path=FILE)");
    }
    if (isBinaryTracePath(*path)) {
        // Stream straight from disk; the header's numNodes field (when
        // present) already guards node ranges.
        return std::make_unique<BinaryTraceReplay>(*path);
    }
    return std::make_unique<traffic::TraceTraffic>(
        traffic::Trace::load(*path, ctx.topo.numNodes()));
}

std::unique_ptr<traffic::TrafficGenerator>
buildCmp(const WorkloadSpec &spec, const WorkloadContext &ctx)
{
    CmpParams p;
    p.packetRate = ctx.injectionRate;
    p.seed = ctx.seed;
    if (const auto *v = spec.find("window"))
        p.window = static_cast<std::int32_t>(parseInt("window", *v));
    if (const auto *v = spec.find("request_flits")) {
        p.requestFlits =
            static_cast<std::uint16_t>(parseInt("request_flits", *v));
    }
    if (const auto *v = spec.find("reply_flits")) {
        p.replyFlits =
            static_cast<std::uint16_t>(parseInt("reply_flits", *v));
    }
    if (const auto *v = spec.find("home_latency")) {
        p.homeLatencyCycles =
            static_cast<Cycle>(parseInt("home_latency", *v));
    }
    if (const auto *v = spec.find("hot_nodes"))
        p.hotNodes = static_cast<std::int32_t>(parseInt("hot_nodes", *v));
    if (const auto *v = spec.find("p_hot"))
        p.pHot = parseDouble("p_hot", *v);
    return std::make_unique<CmpWorkload>(ctx.topo, p);
}

void
registerBuiltins(WorkloadFactory &factory)
{
    factory.add("two-level",
                "the paper's two-level self-similar model (Section 4.3); "
                "tasks in [1, 10000] with duration/tasks >= 1 cycle, "
                "locality_radius >= 1, p_local in [0, 1]",
                {"tasks", "locality_radius", "p_local", "per_packet_dest"},
                buildTwoLevel);

    // Open-loop pattern baselines; per-node Poisson rate chosen so the
    // aggregate matches the experiment's injection rate.
    static const struct
    {
        const char *name;
        traffic::Pattern pattern;
        const char *description;
    } kPatterns[] = {
        {"uniform", traffic::Pattern::UniformRandom,
         "uniform-random destinations, per-node Poisson injection"},
        {"transpose", traffic::Pattern::Transpose,
         "(x,y) -> (y,x) permutation"},
        {"bit-complement", traffic::Pattern::BitComplement,
         "node -> ~node permutation"},
        {"bit-reverse", traffic::Pattern::BitReverse,
         "bit-reversal permutation"},
        {"shuffle", traffic::Pattern::Shuffle, "perfect-shuffle permutation"},
        {"tornado", traffic::Pattern::Tornado,
         "half-way around each dimension"},
        {"neighbor", traffic::Pattern::Neighbor, "+1 in dimension 0"},
    };
    for (const auto &entry : kPatterns) {
        const traffic::Pattern pattern = entry.pattern;
        factory.add(entry.name, entry.description, {},
                    [pattern](const WorkloadSpec &,
                              const WorkloadContext &ctx) {
                        return buildPattern(pattern, ctx);
                    });
    }

    factory.add("trace",
                "replay a recorded packet trace (.dvst binary or CSV)",
                {"path"}, buildTrace);

    factory.add("cmp",
                "closed-loop CMP request/reply coherence traffic",
                {"window", "request_flits", "reply_flits", "home_latency",
                 "hot_nodes", "p_hot"},
                buildCmp);
}

} // namespace

WorkloadSpec
WorkloadSpec::parse(const std::string &text)
{
    WorkloadSpec spec;
    const std::size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (spec.name.empty())
        throw ConfigError("workload spec: empty workload name");

    if (colon == std::string::npos)
        return spec;
    std::size_t pos = colon + 1;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0) {
            throw ConfigError(detail::concat(
                "workload spec '", text, "': expected key=value, got '",
                item, "'"));
        }
        spec.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        pos = comma + 1;
    }
    return spec;
}

std::string
WorkloadSpec::toString() const
{
    std::string out = name;
    for (std::size_t i = 0; i < params.size(); ++i) {
        out += i == 0 ? ':' : ',';
        out += params[i].first;
        out += '=';
        out += params[i].second;
    }
    return out;
}

const std::string *
WorkloadSpec::find(const std::string &key) const
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

WorkloadFactory &
WorkloadFactory::instance()
{
    static WorkloadFactory factory = [] {
        WorkloadFactory f;
        registerBuiltins(f);
        return f;
    }();
    return factory;
}

void
WorkloadFactory::add(const std::string &name,
                     const std::string &description,
                     std::vector<std::string> keys, Builder builder)
{
    DVSNET_ASSERT(!name.empty() && builder, "bad workload registration");
    for (auto &entry : entries_) {
        if (entry.name == name) {
            entry = Entry{name, description, std::move(keys),
                          std::move(builder)};
            return;
        }
    }
    entries_.push_back(
        Entry{name, description, std::move(keys), std::move(builder)});
}

bool
WorkloadFactory::known(const std::string &name) const
{
    return lookup(name) != nullptr;
}

std::vector<std::string>
WorkloadFactory::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
WorkloadFactory::description(const std::string &name) const
{
    const Entry *entry = lookup(name);
    return entry != nullptr ? entry->description : std::string();
}

std::vector<std::string>
WorkloadFactory::keys(const std::string &name) const
{
    const Entry *entry = lookup(name);
    return entry != nullptr ? entry->keys : std::vector<std::string>();
}

std::vector<std::string>
WorkloadFactory::validate(const WorkloadSpec &spec) const
{
    std::vector<std::string> problems;
    const Entry *entry = lookup(spec.name);
    if (entry == nullptr) {
        problems.push_back(detail::concat(
            "unknown workload '", spec.name, "' (registered: ",
            joinList(names()), ")"));
        return problems;
    }
    for (const auto &[key, value] : spec.params) {
        (void)value;
        if (std::find(entry->keys.begin(), entry->keys.end(), key) ==
            entry->keys.end()) {
            problems.push_back(detail::concat(
                "workload '", spec.name, "': unknown key '", key, "' (",
                entry->keys.empty()
                    ? "takes no keys"
                    : detail::concat("valid: ", joinList(entry->keys)),
                ")"));
        }
    }
    return problems;
}

const WorkloadFactory::Entry *
WorkloadFactory::lookup(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

std::unique_ptr<traffic::TrafficGenerator>
WorkloadFactory::build(const WorkloadSpec &spec,
                       const WorkloadContext &context) const
{
    auto problems = validate(spec);
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid workload spec", problems));
    const Entry *entry = lookup(spec.name);
    auto generator = entry->builder(spec, context);
    DVSNET_ASSERT(generator != nullptr, "workload builder returned null");
    return generator;
}

std::vector<std::string>
validateWorkloadSpec(const std::string &text,
                     const traffic::TwoLevelParams &twoLevel)
{
    try {
        const WorkloadSpec spec = WorkloadSpec::parse(text);
        auto problems = WorkloadFactory::instance().validate(spec);
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
    return WorkloadFactory::instance().build(WorkloadSpec::parse(text),
                                             context);
}

} // namespace dvsnet::workload
