/**
 * @file
 * bench_util's by-name policy helper: every name policyKindName()
 * prints selects its policy, and any other name is rejected with the
 * valid ones listed.
 */

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "common/fatal.hpp"

using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;

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
