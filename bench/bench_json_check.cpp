/**
 * @file
 * Validator for `dvsnet-bench-v1` run artifacts.
 *
 *   bench_json_check <artifact.json>
 *       Parse the artifact and check the required keys: schema id,
 *       binary/figure identity, config echo, seed, threads,
 *       wall_seconds and a non-empty results array.  Typed results are
 *       checked too; a `sweep` result must hold as many points as the
 *       artifact's `sweep_points` says each sweep ran.
 *
 *   bench_json_check <artifact.json> --schema <baseline.json>
 *       Additionally compare the artifact's *structure* against a
 *       committed baseline: same key sets recursively, same value
 *       kinds (Int and Double unify as "number"), arrays matched by
 *       their first element.  Values — timings in particular — are
 *       deliberately ignored, so CI can diff a fresh quick run against
 *       the committed full-fidelity BENCH_micro.json.
 *
 *   bench_json_check <artifact.json>... --perf-baseline <baseline.json>
 *                    [--max-regression <fraction>]
 *       Relative perf guard: every named result in the baseline must
 *       appear in every artifact, and for every throughput metric
 *       present in both (events_per_sec, cycles_per_sec, flits_per_sec)
 *       the median over the artifacts must be no more than <fraction>
 *       (default 0.30) below the baseline value.  One slow run among
 *       three therefore cannot fail the guard; two can.  Speedups and
 *       new artifact-only results never fail the guard.
 *
 * Every artifact named is validated (and structure-checked with
 * --schema).
 *
 * Exit status 0 on success; 1 with a diagnostic on stderr otherwise.
 * Used by the ctest bench smoke tests and the CI bench-baseline job.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fatal.hpp"
#include "common/json.hpp"

using dvsnet::Json;

namespace
{

/** Fail the check with a diagnostic; never returns. */
[[noreturn]] void
fail(const std::string &message)
{
    std::fprintf(stderr, "bench_json_check: %s\n", message.c_str());
    std::exit(1);
}

Json
load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fail("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return Json::parse(buf.str());
    } catch (const std::exception &e) {
        fail("'" + path + "' is not valid JSON: " + e.what());
    }
}

/** Structural kind of a value: Int and Double unify as "number". */
const char *
kindName(const Json &v)
{
    if (v.isNull())
        return "null";
    if (v.isBool())
        return "bool";
    if (v.isNumber())
        return "number";
    if (v.isString())
        return "string";
    if (v.isArray())
        return "array";
    return "object";
}

/**
 * Recursive structural comparison (see file comment).  `path` names the
 * location for diagnostics.
 */
void
compareStructure(const Json &got, const Json &want,
                 const std::string &path)
{
    if (std::strcmp(kindName(got), kindName(want)) != 0) {
        fail("structure mismatch at " + path + ": artifact has " +
             kindName(got) + ", baseline has " + kindName(want));
    }
    if (want.isObject()) {
        for (const auto &[key, value] : want.items()) {
            const Json *sub = got.find(key);
            if (!sub)
                fail("missing key at " + path + ": '" + key + "'");
            compareStructure(*sub, value, path + "." + key);
        }
        for (const auto &[key, value] : got.items()) {
            (void)value;
            if (!want.find(key))
                fail("unexpected key at " + path + ": '" + key + "'");
        }
    } else if (want.isArray()) {
        if ((got.size() == 0) != (want.size() == 0)) {
            fail("array emptiness mismatch at " + path + ": artifact has " +
                 std::to_string(got.size()) + " element(s), baseline has " +
                 std::to_string(want.size()));
        }
        if (want.size() > 0)
            compareStructure(got.at(0), want.at(0), path + "[0]");
    }
}

/** Check one required top-level key; `kind` as from kindName(). */
const Json &
require(const Json &root, const char *key, const char *kind)
{
    const Json *v = root.find(key);
    if (!v)
        fail(std::string("missing required key '") + key + "'");
    if (std::strcmp(kindName(*v), kind) != 0) {
        fail(std::string("key '") + key + "' must be " + kind + ", got " +
             kindName(*v));
    }
    return *v;
}

/** Throughput metrics the perf guard compares (bigger is better). */
constexpr const char *kThroughputMetrics[] = {
    "events_per_sec", "cycles_per_sec", "flits_per_sec"};

/** Find a result object by its "name" in a results array, or null. */
const Json *
findResultByName(const Json &results, const std::string &name)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &r = results.at(i);
        if (!r.isObject())
            continue;
        const Json *n = r.find("name");
        if (n && n->isString() && n->asString() == name)
            return &r;
    }
    return nullptr;
}

/** Median of `values` (non-empty); the mean of the middle two for an
 *  even count. */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2.0;
}

/**
 * Relative perf guard (see file comment).  Results are matched by
 * "name"; metrics present only on one side are skipped, but a baseline
 * result missing from any artifact is an error — a renamed or dropped
 * bench must be an explicit baseline update, not a silent pass.  Each
 * metric compares the median of the artifacts that carry it.
 */
void
comparePerf(const std::vector<Json> &artifacts, const Json &baseline,
            double maxRegression)
{
    const Json &want = *baseline.find("results");
    std::size_t compared = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const Json &ref = want.at(i);
        const Json *name = ref.isObject() ? ref.find("name") : nullptr;
        if (!name || !name->isString())
            continue;
        std::vector<const Json *> runs;
        for (const Json &artifact : artifacts) {
            const Json *cur =
                findResultByName(*artifact.find("results"), name->asString());
            if (!cur) {
                fail("perf baseline result '" + name->asString() +
                     "' is missing from the artifact");
            }
            runs.push_back(cur);
        }
        for (const char *metric : kThroughputMetrics) {
            const Json *refV = ref.find(metric);
            if (!refV || !refV->isNumber())
                continue;
            std::vector<double> values;
            for (const Json *cur : runs) {
                const Json *curV = cur->find(metric);
                if (curV && curV->isNumber())
                    values.push_back(curV->asDouble());
            }
            const double refD = refV->asDouble();
            if (values.empty() || refD <= 0.0)
                continue;
            const double curD = median(values);
            const double floor = refD * (1.0 - maxRegression);
            if (curD < floor) {
                char msg[256];
                std::snprintf(
                    msg, sizeof msg,
                    "perf regression: %s.%s = %.4g (median of %zu) is "
                    "%.1f%% below baseline %.4g (allowed: %.0f%%)",
                    name->asString().c_str(), metric, curD, values.size(),
                    (1.0 - curD / refD) * 100.0, refD,
                    maxRegression * 100.0);
                fail(msg);
            }
            ++compared;
        }
    }
    if (compared == 0)
        fail("perf baseline has no comparable throughput metrics");
    std::printf("perf guard: %zu throughput metric(s) within %.0f%% of "
                "baseline\n",
                compared, maxRegression * 100.0);
}

/**
 * Energy/ledger cross-check: any object (at any depth) carrying the
 * triple {measured_cycles, avg_power_w, total_energy_j} must satisfy
 * avg_power_w * measured_cycles * 1ns == total_energy_j to 1e-9
 * relative — avg_power_w is derived from the ledger's integrated
 * energy, so a disagreement means a point's energy totals were not
 * produced by the ledger that produced its power.
 */
void
checkEnergyAgreement(const Json &node, const std::string &path)
{
    if (node.isArray()) {
        for (std::size_t i = 0; i < node.size(); ++i) {
            checkEnergyAgreement(node.at(i),
                                 path + "[" + std::to_string(i) + "]");
        }
        return;
    }
    if (!node.isObject())
        return;
    const Json *cycles = node.find("measured_cycles");
    const Json *power = node.find("avg_power_w");
    const Json *energy = node.find("total_energy_j");
    if (cycles && power && energy && cycles->isNumber() &&
        power->isNumber() && energy->isNumber()) {
        // Router cycles are 1 ns (kRouterClockPeriod = 1000 ticks at
        // 1e12 ticks/s), so the window span is measured_cycles * 1e-9 s.
        const double expected =
            power->asDouble() * cycles->asDouble() * 1e-9;
        const double got = energy->asDouble();
        const double tolerance = 1e-9 * std::max(1.0, std::abs(got));
        if (std::abs(expected - got) > tolerance) {
            char msg[256];
            std::snprintf(msg, sizeof msg,
                          "energy/ledger disagreement at %s: avg_power_w "
                          "* window = %.17g J vs total_energy_j = %.17g J",
                          path.c_str(), expected, got);
            fail(msg);
        }
    }
    for (const auto &[key, value] : node.items())
        checkEnergyAgreement(value, path + "." + key);
}

/**
 * Typed `pareto_search` result entry (the search driver binaries): the
 * spec echo, a completion flag, the evaluation/cache counters, and a
 * front whose points all carry numeric objective vectors of a shared
 * arity.  `continued` counts evaluations that ran a kept network on, so
 * it is at most `network_evals`.  A completed search must have a
 * non-empty front; an interrupted one (budget exhausted) may
 * legitimately have none.
 */
void
checkParetoSearchEntry(const Json &entry)
{
    const Json *spec = entry.find("search");
    if (!spec || !spec->isString() || spec->asString().empty())
        fail("pareto_search result missing non-empty string 'search'");
    const Json *completed = entry.find("completed");
    if (!completed || !completed->isBool())
        fail("pareto_search result missing bool 'completed'");
    for (const char *key : {"candidates", "network_evals",
                            "network_evals_full", "cache_hits",
                            "culled", "continued"}) {
        const Json *v = entry.find(key);
        if (!v || !v->isNumber()) {
            fail(std::string("pareto_search result missing numeric '") +
                 key + "'");
        }
    }
    if (entry.find("continued")->asDouble() >
        entry.find("network_evals")->asDouble())
        fail("pareto_search 'continued' exceeds 'network_evals'");
    const Json *front = entry.find("front");
    if (!front || !front->isArray())
        fail("pareto_search result missing array 'front'");
    if (completed->asBool() && front->size() == 0)
        fail("pareto_search front is empty on a completed search");
    std::size_t arity = 0;
    for (std::size_t i = 0; i < front->size(); ++i) {
        const Json &point = front->at(i);
        const Json *obj =
            point.isObject() ? point.find("objectives") : nullptr;
        if (!obj || !obj->isArray() || obj->size() == 0) {
            fail("pareto_search front point " + std::to_string(i) +
                 " missing non-empty array 'objectives'");
        }
        if (i == 0)
            arity = obj->size();
        if (obj->size() != arity) {
            fail("pareto_search front point " + std::to_string(i) +
                 " has mixed objective arity");
        }
        for (std::size_t k = 0; k < obj->size(); ++k) {
            if (!obj->at(k).isNumber()) {
                fail("pareto_search front point " + std::to_string(i) +
                     " objective " + std::to_string(k) +
                     " is not a number");
            }
        }
    }
}

/** Sweep `index` holds exactly the root's `sweep_points` points. */
void
checkSweepEntry(const Json &entry, std::size_t index, const Json &root)
{
    const Json *declared = root.find("sweep_points");
    if (!declared || !declared->isNumber())
        fail("sweep result without a numeric 'sweep_points' at the root");
    const Json *points = entry.find("points");
    if (!points || !points->isArray())
        fail("sweep result missing array 'points'");
    if (static_cast<double>(points->size()) != declared->asDouble()) {
        fail("results[" + std::to_string(index) + "] is a sweep of " +
             std::to_string(points->size()) + " points, but sweep_points "
             "is " + declared->dump());
    }
}

void
validate(const Json &root)
{
    if (!root.isObject())
        fail("artifact root must be an object");
    const Json &schema = require(root, "schema", "string");
    if (schema.asString() != "dvsnet-bench-v1")
        fail("unknown schema '" + schema.asString() + "'");
    require(root, "binary", "string");
    require(root, "figure", "string");
    require(root, "config", "object");
    // Seeds are full-range uint64 streams; artifacts carry them as
    // decimal strings because JSON numbers are lossy past 2^53.
    require(root, "seed", "string");
    require(root, "threads", "number");
    require(root, "wall_seconds", "number");
    const Json &results = require(root, "results", "array");
    if (results.size() == 0)
        fail("results array is empty");

    // Optional typed fields introduced with the workload subsystem.
    // "workload" is the bench's --workload spec string ("default" when
    // unset); bench_micro's hand-rolled artifact predates it, so it is
    // typed-if-present rather than required.
    if (const Json *workload = root.find("workload")) {
        if (!workload->isString())
            fail("key 'workload' must be a string");
        if (workload->asString().empty())
            fail("key 'workload' must not be empty");
    }
    // "link_power" (from the --link-power flag) echoes the backend
    // selection: an object carrying the spec string and the resolved
    // backend name, both non-empty.  Typed-if-present for the same
    // reason as "workload".
    if (const Json *linkPower = root.find("link_power")) {
        if (!linkPower->isObject())
            fail("key 'link_power' must be an object");
        for (const char *key : {"spec", "backend"}) {
            const Json *v = linkPower->find(key);
            if (!v || !v->isString() || v->asString().empty()) {
                fail(std::string("link_power must carry a non-empty "
                                 "string '") +
                     key + "'");
            }
        }
    }
    // Known typed result entries: trace_files rows (bench_trace_replay)
    // must carry the full size-comparison record; pareto_search rows
    // (the search driver binaries) must carry the spec echo, the
    // evaluation/cache counters and a well-formed front; sweep rows
    // must hold the point count the artifact declares.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Json &entry = results.at(i);
        if (!entry.isObject())
            continue;
        const Json *type = entry.find("type");
        if (!type || !type->isString())
            continue;
        if (type->asString() == "trace_files") {
            for (const char *key : {"entries", "csv_bytes",
                                    "binary_bytes",
                                    "compression_vs_csv"}) {
                const Json *v = entry.find(key);
                if (!v || !v->isNumber()) {
                    fail(std::string(
                             "trace_files result missing numeric '") +
                         key + "'");
                }
            }
        } else if (type->asString() == "pareto_search") {
            checkParetoSearchEntry(entry);
        } else if (type->asString() == "sweep") {
            checkSweepEntry(entry, i, root);
        }
    }
    // Per-point energy totals must have come from the same ledger that
    // produced the point's average power.
    checkEnergyAgreement(results, "$.results");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> artifactPaths;
    std::string baselinePath;
    std::string perfBaselinePath;
    double maxRegression = 0.30;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--schema") == 0) {
            if (i + 1 >= argc)
                fail("--schema expects a baseline path");
            baselinePath = argv[++i];
        } else if (std::strcmp(argv[i], "--perf-baseline") == 0) {
            if (i + 1 >= argc)
                fail("--perf-baseline expects a baseline path");
            perfBaselinePath = argv[++i];
        } else if (std::strcmp(argv[i], "--max-regression") == 0) {
            if (i + 1 >= argc)
                fail("--max-regression expects a fraction in (0, 1)");
            maxRegression = std::strtod(argv[++i], nullptr);
            if (!(maxRegression > 0.0 && maxRegression < 1.0))
                fail("--max-regression must be a fraction in (0, 1)");
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            fail(std::string("unexpected argument '") + argv[i] + "'");
        } else {
            artifactPaths.push_back(argv[i]);
        }
    }
    if (artifactPaths.empty())
        fail("usage: bench_json_check <artifact.json>... "
             "[--schema <baseline.json>] "
             "[--perf-baseline <baseline.json> "
             "[--max-regression <fraction>]]");

    std::vector<Json> artifacts;
    for (const auto &path : artifactPaths) {
        artifacts.push_back(load(path));
        validate(artifacts.back());
    }

    if (!baselinePath.empty()) {
        const Json baseline = load(baselinePath);
        validate(baseline);
        for (std::size_t i = 0; i < artifacts.size(); ++i) {
            compareStructure(artifacts[i], baseline, "$");
            std::printf("OK: %s matches the structure of %s\n",
                        artifactPaths[i].c_str(), baselinePath.c_str());
        }
    }
    if (!perfBaselinePath.empty()) {
        const Json baseline = load(perfBaselinePath);
        validate(baseline);
        comparePerf(artifacts, baseline, maxRegression);
        std::printf("OK: the median of %zu artifact(s) meets the perf "
                    "baseline %s\n",
                    artifacts.size(), perfBaselinePath.c_str());
    }
    if (baselinePath.empty() && perfBaselinePath.empty()) {
        for (const auto &path : artifactPaths) {
            std::printf("OK: %s is a valid dvsnet-bench-v1 artifact\n",
                        path.c_str());
        }
    }
    return 0;
}
