/**
 * @file
 * Workload registry tests: up-front validation (unknown names/keys
 * rejected with the registered alternatives listed), builder behavior,
 * and the ExperimentSpec integration that carries `--workload` strings
 * into experiments.  The spec grammar itself is tests/test_spec.cpp's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "network/sweep.hpp"
#include "topo/topology.hpp"
#include "workload/factory.hpp"

using dvsnet::ConfigError;
using dvsnet::Spec;
using dvsnet::network::ExperimentSpec;
using dvsnet::topo::KAryNCube;
using dvsnet::workload::buildWorkload;
using dvsnet::workload::validateWorkloadSpec;
using dvsnet::workload::WorkloadContext;
using dvsnet::workload::workloadRegistry;

namespace
{

bool
anyContains(const std::vector<std::string> &problems,
            const std::string &needle)
{
    return std::any_of(problems.begin(), problems.end(),
                       [&](const std::string &p) {
                           return p.find(needle) != std::string::npos;
                       });
}

/** Two-level spec strings outside TwoLevelParams::validate()'s bounds,
 *  with the field each problem must name. */
const struct
{
    const char *spec;
    const char *field;
} kBadTwoLevelSpecs[] = {
    {"two-level:tasks=0", "avgConcurrentTasks"},
    {"two-level:tasks=nan", "avgConcurrentTasks"},
    {"two-level:tasks=1e300", "avgConcurrentTasks"},
    {"two-level:tasks=1e-300", "avgConcurrentTasks"},
    {"two-level:p_local=2", "pLocal"},
    {"two-level:locality_radius=0", "localityRadius"},
};

/** Mean task durations (the benches' task_duration key) out of bounds:
 *  too long for the tick range, or a session gap under one cycle. */
const double kBadTaskDurations[] = {
    1e300, std::numeric_limits<double>::infinity(), 1e-300};

} // namespace

// The grammar is shared (tests/test_spec.cpp); these pin the workload
// strings the CLI documents, and that validateWorkloadSpec reports a
// malformed one as a problem rather than throwing.

TEST(WorkloadSpec, ParsesNameOnly)
{
    const Spec spec = Spec::parse("uniform");
    EXPECT_EQ(spec.name, "uniform");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.toString(), "uniform");
    EXPECT_TRUE(validateWorkloadSpec("uniform").empty());
}

TEST(WorkloadSpec, ParsesKeyValueList)
{
    const Spec spec = Spec::parse("cmp:window=8,hot_nodes=4,p_hot=0.3");
    EXPECT_EQ(spec.name, "cmp");
    ASSERT_EQ(spec.params.size(), 3u);
    ASSERT_NE(spec.find("window"), nullptr);
    EXPECT_EQ(*spec.find("window"), "8");
    EXPECT_EQ(spec.find("missing"), nullptr);
    EXPECT_EQ(spec.toString(), "cmp:window=8,hot_nodes=4,p_hot=0.3");
    EXPECT_TRUE(validateWorkloadSpec(spec.toString()).empty());
}

TEST(WorkloadSpec, RejectsMalformedSpecs)
{
    for (const char *text : {"", ":window=8", "cmp:window", "cmp:=8"}) {
        EXPECT_THROW(Spec::parse(text), ConfigError) << "'" << text << "'";
        EXPECT_FALSE(validateWorkloadSpec(text).empty())
            << "'" << text << "'";
    }
}

TEST(WorkloadFactory, BuiltinsAreRegistered)
{
    const auto &registry = workloadRegistry();
    const auto names = registry.names();
    for (const char *name :
         {"two-level", "uniform", "transpose", "bit-complement",
          "bit-reverse", "shuffle", "tornado", "neighbor", "trace",
          "cmp"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
            << name;
        EXPECT_FALSE(registry.description(name).empty()) << name;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(WorkloadFactory, UnknownNameListsRegisteredWorkloads)
{
    const auto problems = validateWorkloadSpec("no-such-workload");
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyContains(problems, "no-such-workload"));
    // The error must teach: every registered name is listed.
    EXPECT_TRUE(anyContains(problems, "two-level"));
    EXPECT_TRUE(anyContains(problems, "cmp"));
}

TEST(WorkloadFactory, UnknownKeyListsValidKeys)
{
    const auto problems = validateWorkloadSpec("cmp:bogus=1");
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyContains(problems, "bogus"));
    EXPECT_TRUE(anyContains(problems, "window"));
}

TEST(WorkloadFactory, KeylessWorkloadRejectsAnyKey)
{
    const auto problems = validateWorkloadSpec("uniform:rate=1");
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyContains(problems, "takes no keys"));
}

TEST(WorkloadFactory, ValidSpecsPass)
{
    EXPECT_TRUE(validateWorkloadSpec("two-level").empty());
    EXPECT_TRUE(validateWorkloadSpec("two-level:tasks=3,p_local=0.5")
                    .empty());
    EXPECT_TRUE(validateWorkloadSpec("cmp:window=8").empty());
    EXPECT_TRUE(validateWorkloadSpec("trace:path=x.dvst").empty());
}

TEST(WorkloadFactory, BuildsEachBuiltinKind)
{
    const KAryNCube topo(4, 2, false);
    const WorkloadContext ctx{topo, 0.5, 99,
                              dvsnet::traffic::TwoLevelParams{}};
    EXPECT_STREQ(buildWorkload("two-level", ctx)->name(), "two-level");
    EXPECT_STREQ(buildWorkload("uniform", ctx)->name(), "uniform");
    const auto cmp = buildWorkload("cmp:window=2,hot_nodes=4,p_hot=0.5",
                                   ctx);
    EXPECT_STREQ(cmp->name(), "cmp");
    EXPECT_TRUE(cmp->wantsDeliveries());
}

TEST(WorkloadFactory, BuildRejectsBadValuesAndMissingPath)
{
    const KAryNCube topo(4, 2, false);
    const WorkloadContext ctx{topo, 0.5, 99,
                              dvsnet::traffic::TwoLevelParams{}};
    EXPECT_THROW(buildWorkload("no-such-workload", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("cmp:window=abc", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("cmp:window=0", ctx), ConfigError);
    // Integers out of their field's range, which once wrapped on the
    // narrowing cast, and a NaN hot-set probability.
    EXPECT_THROW(buildWorkload("cmp:request_flits=65537", ctx),
                 ConfigError);
    EXPECT_THROW(buildWorkload("cmp:window=4294967297", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("cmp:home_latency=-1", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("cmp:hot_nodes=4,p_hot=nan", ctx),
                 ConfigError);
    EXPECT_THROW(buildWorkload("trace", ctx), ConfigError);

    for (const auto &bad : kBadTwoLevelSpecs)
        EXPECT_THROW(buildWorkload(bad.spec, ctx), ConfigError) << bad.spec;
    for (const double duration : kBadTaskDurations) {
        WorkloadContext bad = ctx;
        bad.twoLevel.meanTaskDurationCycles = duration;
        EXPECT_THROW(buildWorkload("two-level", bad), ConfigError)
            << duration;
    }

    // Figs. 10-11's 100 and 50 tasks and the quick benches' 12, at task
    // durations from 1k to 1M cycles, still build.
    for (const int tasks : {12, 50, 100}) {
        for (const double duration : {1e3, 1e4, 1e5, 1e6}) {
            WorkloadContext ok = ctx;
            ok.twoLevel.meanTaskDurationCycles = duration;
            EXPECT_NO_THROW(buildWorkload(
                "two-level:tasks=" + std::to_string(tasks), ok))
                << tasks << " tasks, duration " << duration;
        }
    }
}

TEST(WorkloadFactory, ExperimentSpecValidatesWorkloadSpec)
{
    ExperimentSpec spec;
    EXPECT_TRUE(spec.validate().empty());  // default: two-level

    spec.workloadSpec = "no-such-workload";
    EXPECT_TRUE(anyContains(spec.validate(), "no-such-workload"));

    spec.workloadSpec = "cmp:bogus=1";
    EXPECT_TRUE(anyContains(spec.validate(), "bogus"));

    spec.workloadSpec = "cmp:window=4";
    EXPECT_TRUE(spec.validate().empty());

    for (const auto &bad : kBadTwoLevelSpecs) {
        spec.workloadSpec = bad.spec;
        EXPECT_TRUE(anyContains(spec.validate(), bad.field)) << bad.spec;
    }
    spec.workloadSpec = "two-level";
    for (const double duration : kBadTaskDurations) {
        spec.workload.meanTaskDurationCycles = duration;
        EXPECT_TRUE(anyContains(spec.validate(), "meanTaskDurationCycles"))
            << duration;
    }
    for (const int tasks : {12, 50, 100}) {
        for (const double duration : {1e3, 1e4, 1e5, 1e6}) {
            spec.workload.meanTaskDurationCycles = duration;
            spec.workloadSpec = "two-level:tasks=" + std::to_string(tasks);
            EXPECT_TRUE(spec.validate().empty())
                << tasks << " tasks, duration " << duration;
        }
    }
}
