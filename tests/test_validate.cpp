/**
 * @file
 * Configuration validation tests: NetworkConfig::validate() /
 * ExperimentSpec::validate() must name each problem descriptively, and
 * Network's constructor must throw ConfigError instead of crashing deep
 * inside construction.
 */

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "common/fatal.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"

using dvsnet::ConfigError;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::Network;
using dvsnet::network::NetworkConfig;
using dvsnet::network::PolicyKind;

namespace
{

bool
mentions(const std::vector<std::string> &problems, const std::string &what)
{
    for (const auto &p : problems) {
        if (p.find(what) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(NetworkConfigValidate, DefaultsAreValid)
{
    EXPECT_TRUE(NetworkConfig{}.validate().empty());
}

TEST(NetworkConfigValidate, FlagsEachProblemDescriptively)
{
    NetworkConfig cfg;
    cfg.radix = 1;
    cfg.dims = 0;
    cfg.router.numVcs = 0;
    cfg.router.pipelineLatency = 2;
    cfg.packetLength = 0;
    cfg.link.linksPerChannel = 0;
    cfg.link.initialLevel = 10;

    const auto problems = cfg.validate();
    EXPECT_TRUE(mentions(problems, "radix"));
    EXPECT_TRUE(mentions(problems, "dims"));
    EXPECT_TRUE(mentions(problems, "numVcs"));
    EXPECT_TRUE(mentions(problems, "pipelineLatency"));
    EXPECT_TRUE(mentions(problems, "packetLength"));
    EXPECT_TRUE(mentions(problems, "linksPerChannel"));
    EXPECT_TRUE(mentions(problems, "initialLevel"));
}

TEST(NetworkConfigValidate, StaticLevelMustFitLevelTable)
{
    NetworkConfig cfg;
    cfg.policy = PolicyKind::StaticLevel;
    cfg.staticLevel = 9;
    EXPECT_TRUE(cfg.validate().empty());

    cfg.staticLevel = 10;  // one past the 10-level table
    EXPECT_TRUE(mentions(cfg.validate(), "staticLevel"));

    // Irrelevant when another policy is selected.
    cfg.policy = PolicyKind::History;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(NetworkConfigValidate, BufferMustCoverVcs)
{
    NetworkConfig cfg;
    cfg.router.numVcs = 4;
    cfg.router.bufferPerPort = 3;  // no slot for every VC
    EXPECT_TRUE(mentions(cfg.validate(), "bufferPerPort"));
}

TEST(NetworkConfigValidate, NodeCountIsCappedWithoutOverflow)
{
    // The cap itself is valid: a 256 x 256 mesh has kMaxNodes nodes.
    NetworkConfig cfg;
    cfg.radix = 256;
    EXPECT_TRUE(cfg.validate().empty());

    // One node row past it, and sizes whose radix^dims overflows 32 or
    // 64 bits, are rejected naming the cap, each as the only problem.
    const std::pair<std::int32_t, std::int32_t> tooLarge[] = {
        {257, 2},
        {5000, 2},
        {2, 31},
        {std::numeric_limits<std::int32_t>::max(), 3},
        {65536, 30}};
    for (const auto &[radix, dims] : tooLarge) {
        cfg.radix = radix;
        cfg.dims = dims;
        const auto problems = cfg.validate();
        ASSERT_EQ(problems.size(), 1u) << radix << "^" << dims;
        EXPECT_NE(problems[0].find("topo::kMaxNodes = 65536"),
                  std::string::npos)
            << problems[0];
    }
}

TEST(NetworkConfigValidate, ZeroPolicyWindowFlaggedUnlessNoPolicy)
{
    NetworkConfig cfg;
    cfg.policyWindow = 0;
    EXPECT_TRUE(mentions(cfg.validate(), "policyWindow"));
    cfg.policy = PolicyKind::None;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(NetworkConfigValidate, NetworkConstructorThrowsConfigError)
{
    NetworkConfig cfg;
    cfg.radix = 1;
    try {
        Network net(cfg);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("radix"), std::string::npos);
    }
}

TEST(ExperimentSpecValidate, DefaultsAreValid)
{
    EXPECT_TRUE(ExperimentSpec{}.validate().empty());
}

TEST(ExperimentSpecValidate, FlagsWorkloadAndWindowProblems)
{
    ExperimentSpec spec;
    spec.workload.avgConcurrentTasks = 0;
    spec.workload.meanTaskDurationCycles = -1;
    spec.workload.sourcesPerTask = 0;
    spec.workload.durationSpread = 1.5;
    spec.workload.rateSpread = -0.1;
    spec.workload.pLocal = 2.0;
    spec.workload.localityRadius = 0;
    spec.measure = 0;

    const auto problems = spec.validate();
    EXPECT_TRUE(mentions(problems, "avgConcurrentTasks"));
    EXPECT_TRUE(mentions(problems, "meanTaskDurationCycles"));
    EXPECT_TRUE(mentions(problems, "sourcesPerTask"));
    EXPECT_TRUE(mentions(problems, "durationSpread"));
    EXPECT_TRUE(mentions(problems, "rateSpread"));
    EXPECT_TRUE(mentions(problems, "pLocal"));
    EXPECT_TRUE(mentions(problems, "localityRadius"));
    EXPECT_TRUE(mentions(problems, "measurement window"));
}

TEST(ExperimentSpecValidate, RunLengthMustFitSixtyFourBitTicks)
{
    // The wrap `cycles=-5` used to produce: 20000 + (2^64 - 5) cycles.
    ExperimentSpec spec;
    spec.warmup = 20000;
    spec.measure = static_cast<dvsnet::Cycle>(-5);
    EXPECT_TRUE(mentions(spec.validate(), "overflows 64-bit ticks"));

    // Each window alone may fit while their sum does not.
    constexpr dvsnet::Cycle kMax =
        std::numeric_limits<dvsnet::Tick>::max() / dvsnet::kRouterClockPeriod;
    spec.warmup = kMax / 2 + 1;
    spec.measure = kMax / 2 + 1;
    EXPECT_TRUE(mentions(spec.validate(), "overflows 64-bit ticks"));

    spec.warmup = kMax - 1;
    spec.measure = 1;
    EXPECT_TRUE(spec.validate().empty());
}

TEST(ExperimentSpecValidate, IncludesNetworkProblems)
{
    ExperimentSpec spec;
    spec.network.radix = 0;
    EXPECT_TRUE(mentions(spec.validate(), "radix"));
}

TEST(JoinProblems, FormatsList)
{
    EXPECT_EQ(dvsnet::joinProblems("bad config", {"a", "b"}),
              "bad config: a; b");
    EXPECT_EQ(dvsnet::joinProblems("bad config", {}), "bad config:");
}
