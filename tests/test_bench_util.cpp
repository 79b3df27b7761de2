/**
 * @file
 * bench_util's option reader and by-name policy helper: a bench's
 * default windows apply at each fidelity, a removed key is refused, and
 * every name policyKindName() prints selects its policy while any other
 * name is rejected with the valid ones listed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/fatal.hpp"

using dvsnet::bench::BenchOptions;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;

namespace
{

/** parseOptions over a command line of `args` after the binary name. */
BenchOptions
parse(std::vector<std::string> args,
      const dvsnet::bench::Defaults &defaults = {})
{
    args.insert(args.begin(), "bench_test");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    return dvsnet::bench::parseOptions(static_cast<int>(argv.size()),
                                       argv.data(), defaults);
}

} // namespace

TEST(BenchParseOptions, DefaultsSetEachWindowAtEachFidelity)
{
    const dvsnet::bench::Defaults defaults{.warmup = 20000,
                                           .measure = 2000000,
                                           .quickWarmup = 1000,
                                           .quickMeasure = 200000};
    const auto full = parse({}, defaults);
    EXPECT_EQ(full.warmup, 20000u);
    EXPECT_EQ(full.measure, 2000000u);
    const auto quick = parse({"--quick"}, defaults);
    EXPECT_EQ(quick.warmup, 1000u);
    EXPECT_EQ(quick.measure, 200000u);
    // The keys still override the bench's defaults.
    const auto set = parse({"--quick", "warmup=7", "cycles=9"}, defaults);
    EXPECT_EQ(set.warmup, 7u);
    EXPECT_EQ(set.measure, 9u);
    // The suite-wide defaults: the DVS level transient's warm-up.
    EXPECT_EQ(parse({}).warmup, 120000u);
    EXPECT_EQ(parse({"--quick"}).measure, 6000u);
}

TEST(BenchParseOptions, LightWarmupIsAnUnknownKey)
{
    // The DVS-off benches read `warmup`; the key they used to read
    // instead is refused, not ignored.
    const auto opts = parse({"--quick", "light_warmup=1"});
    try {
        dvsnet::bench::rejectUnknownKeys(opts);
        ADD_FAILURE() << "light_warmup was accepted";
    } catch (const dvsnet::ConfigError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "bench_test: unknown key 'light_warmup' (accepted: ",
                      0),
                  0u)
            << e.what();
    }
}

TEST(BenchSetPolicy, EveryPrintedNameSelectsItsPolicy)
{
    for (const PolicyKind kind :
         {PolicyKind::None, PolicyKind::History, PolicyKind::LinkUtilOnly,
          PolicyKind::StaticLevel, PolicyKind::DynamicThreshold}) {
        ExperimentSpec spec;
        spec.network.policy = kind == PolicyKind::None ? PolicyKind::History
                                                       : PolicyKind::None;
        dvsnet::bench::setPolicy(spec,
                                 dvsnet::network::policyKindName(kind));
        EXPECT_EQ(spec.network.policy, kind)
            << dvsnet::network::policyKindName(kind);
    }
}

TEST(BenchSetPolicy, UnknownNameListsTheValidOnes)
{
    ExperimentSpec spec;
    spec.network.policy = PolicyKind::History;
    try {
        dvsnet::bench::setPolicy(spec, "History");
        ADD_FAILURE() << "a misspelled policy name was accepted";
    } catch (const dvsnet::ConfigError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown policy 'History' (valid: none, history, "
                     "link-util-only, static-level, dynamic-threshold)");
    }
    EXPECT_EQ(spec.network.policy, PolicyKind::History);
}
