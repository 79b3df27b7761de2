/**
 * @file
 * Link power backend tests: registry/rejection behavior (the spec
 * grammar is tests/test_spec.cpp's), table-backend bit-identity with
 * the fitted level law, toggle-backend energy math + calibration,
 * payload-hash determinism, and end-to-end network runs under both
 * backends.
 */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "common/fatal.hpp"
#include "common/spec.hpp"
#include "exp/experiment.hpp"
#include "link/dvs_level.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "power/link_power.hpp"
#include "router/flit.hpp"
#include "test_packets.hpp"

using dvsnet::ConfigError;
using dvsnet::Spec;
using dvsnet::link::DvsLevelTable;
using dvsnet::power::buildLinkPowerModel;
using dvsnet::power::flitPayloadWord;
using dvsnet::power::LinkPowerContext;
using dvsnet::power::LinkPowerModel;
using dvsnet::power::linkPowerRegistry;
using dvsnet::power::TableLinkPowerModel;
using dvsnet::power::ToggleLinkPowerModel;
using dvsnet::power::validateLinkPowerSpec;

namespace
{

LinkPowerContext
standardContext()
{
    const DvsLevelTable table = DvsLevelTable::standard10();
    return LinkPowerContext{table.coeffA(), table.coeffB(),
                            dvsnet::link::kLinksPerChannel};
}

} // namespace

// The grammar is shared (tests/test_spec.cpp); these pin the backend
// strings the CLI documents, and that validateLinkPowerSpec reports a
// malformed one as a problem rather than throwing.

TEST(LinkPowerSpec, ParsesBareName)
{
    const Spec spec = Spec::parse("table");
    EXPECT_EQ(spec.name, "table");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.toString(), "table");
    EXPECT_TRUE(validateLinkPowerSpec("table").empty());
}

TEST(LinkPowerSpec, ParsesKeyValueList)
{
    const Spec spec = Spec::parse("toggle:idle=0.25,width=16");
    EXPECT_EQ(spec.name, "toggle");
    ASSERT_EQ(spec.params.size(), 2u);
    ASSERT_NE(spec.find("idle"), nullptr);
    EXPECT_EQ(*spec.find("idle"), "0.25");
    ASSERT_NE(spec.find("width"), nullptr);
    EXPECT_EQ(*spec.find("width"), "16");
    EXPECT_EQ(spec.find("missing"), nullptr);
    EXPECT_EQ(spec.toString(), "toggle:idle=0.25,width=16");
    EXPECT_TRUE(validateLinkPowerSpec(spec.toString()).empty());
}

TEST(LinkPowerSpec, RejectsMalformedSpecs)
{
    for (const char *text :
         {"", ":idle=1", "toggle:idle", "toggle:=0.5", "toggle:idle=0.5,"}) {
        EXPECT_THROW(Spec::parse(text), ConfigError) << "'" << text << "'";
        EXPECT_FALSE(validateLinkPowerSpec(text).empty())
            << "'" << text << "'";
    }
}

TEST(LinkPowerFactory, KnowsBuiltins)
{
    const auto &registry = linkPowerRegistry();
    const auto names = registry.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "table"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "toggle"),
              names.end());
    EXPECT_EQ(std::find(names.begin(), names.end(), "nonsense"),
              names.end());
    EXPECT_FALSE(registry.description("toggle").empty());
    // "table" takes no keys; "toggle" takes exactly these four.
    const auto tableKeys = validateLinkPowerSpec("table:x=1");
    ASSERT_EQ(tableKeys.size(), 1u);
    EXPECT_NE(tableKeys[0].find("(takes no keys)"), std::string::npos);
    const auto toggleKeys = validateLinkPowerSpec("toggle:x=1");
    ASSERT_EQ(toggleKeys.size(), 1u);
    EXPECT_NE(toggleKeys[0].find("(accepted: cw, cc, idle, width)"),
              std::string::npos);
}

TEST(LinkPowerFactory, RejectsUnknownNameListingRegistered)
{
    const auto problems = validateLinkPowerSpec("nonsense");
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("unknown link-power backend 'nonsense'"),
              std::string::npos);
    EXPECT_NE(problems[0].find("table"), std::string::npos);
    EXPECT_NE(problems[0].find("toggle"), std::string::npos);
}

TEST(LinkPowerFactory, RejectsUnknownKeysListingValid)
{
    const auto problems = validateLinkPowerSpec("toggle:bogus=1");
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("unknown key 'bogus'"), std::string::npos);
    EXPECT_NE(problems[0].find("cw"), std::string::npos);

    const auto noKeys = validateLinkPowerSpec("table:x=1");
    ASSERT_EQ(noKeys.size(), 1u);
    EXPECT_NE(noKeys[0].find("takes no keys"), std::string::npos);
}

TEST(LinkPowerFactory, MalformedSpecSurfacesAsProblem)
{
    EXPECT_FALSE(validateLinkPowerSpec("").empty());
    EXPECT_FALSE(validateLinkPowerSpec("toggle:idle").empty());
    EXPECT_TRUE(validateLinkPowerSpec("table").empty());
    EXPECT_TRUE(validateLinkPowerSpec("toggle:idle=0.3").empty());
}

TEST(LinkPowerFactory, BuildThrowsOnInvalidSpecOrValues)
{
    const auto ctx = standardContext();
    EXPECT_THROW(buildLinkPowerModel("nonsense", ctx), ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:idle=1.5", ctx),
                 ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:width=0", ctx), ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:width=65", ctx),
                 ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:cw=-1", ctx), ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:idle=abc", ctx),
                 ConfigError);
    // Non-finite values, which once built NaN or infinite power.
    EXPECT_THROW(buildLinkPowerModel("toggle:idle=nan", ctx), ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:cw=inf", ctx), ConfigError);
    EXPECT_THROW(buildLinkPowerModel("toggle:cw=nan", ctx), ConfigError);
}

TEST(TableLinkPowerModel, BitIdenticalToFittedLevelLaw)
{
    const DvsLevelTable table = DvsLevelTable::standard10();
    const TableLinkPowerModel model(table.coeffA(), table.coeffB());
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto &lvl = table.level(i);
        // EXPECT_EQ, not NEAR: the golden masters rely on the backend
        // reproducing the pre-seam arithmetic to the bit.
        EXPECT_EQ(model.operatingPowerW(lvl.voltage, lvl.frequencyHz),
                  table.powerAt(lvl.voltage, lvl.frequencyHz));
    }
    // Transitional operating points mix one level's voltage with
    // another's frequency.
    const auto &fast = table.level(table.fastest());
    const auto &slow = table.level(table.slowest());
    EXPECT_EQ(model.operatingPowerW(fast.voltage, slow.frequencyHz),
              table.powerAt(fast.voltage, slow.frequencyHz));
    EXPECT_EQ(model.operatingPowerW(slow.voltage, fast.frequencyHz),
              table.powerAt(slow.voltage, fast.frequencyHz));
    EXPECT_FALSE(model.chargesFlitEnergy());
    EXPECT_EQ(model.flitEnergyJ(0x1234, 0x5678, 2.5), 0.0);
}

TEST(LinkPowerEndpoints, DerivedFromDefaultTable)
{
    const DvsLevelTable table = DvsLevelTable::standard10();
    EXPECT_EQ(dvsnet::link::maxLinkPowerW(),
              table.level(table.fastest()).powerW);
    EXPECT_EQ(dvsnet::link::minLinkPowerW(),
              table.level(table.slowest()).powerW);
    // The published Section 4.2 endpoints.
    EXPECT_DOUBLE_EQ(dvsnet::link::maxLinkPowerW(), 0.200);
    EXPECT_DOUBLE_EQ(dvsnet::link::minLinkPowerW(), 0.0236);
}

TEST(ToggleLinkPowerModel, FlitEnergyCountsTogglesAndCouplings)
{
    ToggleLinkPowerModel::Params p;
    p.toggleCapacitanceF = 2.0;
    p.couplingCapacitanceF = 1.0;
    p.idleFraction = 0.5;
    p.payloadWidth = 8;
    const ToggleLinkPowerModel model(p, 1.0, 0.0);

    // No activity, no energy.
    EXPECT_EQ(model.flitEnergyJ(0xAB, 0xAB, 2.5), 0.0);
    // 0b1111: 4 toggles, 3 adjacent toggling pairs; V = 2.
    EXPECT_DOUBLE_EQ(model.flitEnergyJ(0x0F, 0x00, 2.0),
                     (4.0 * 2.0 + 3.0 * 1.0) * 4.0);
    // 0b0101: 2 toggles, no adjacent pair.
    EXPECT_DOUBLE_EQ(model.flitEnergyJ(0x05, 0x00, 1.0), 2.0 * 2.0);
    // Bits beyond payloadWidth are masked off.
    EXPECT_EQ(model.flitEnergyJ(0x100, 0x000, 2.5), 0.0);
    EXPECT_TRUE(model.chargesFlitEnergy());
}

TEST(ToggleLinkPowerModel, DefaultCalibrationMatchesTableDynamicShare)
{
    const auto ctx = standardContext();
    const auto p = ToggleLinkPowerModel::defaultParams(ctx);
    EXPECT_DOUBLE_EQ(p.idleFraction, 0.5);
    EXPECT_EQ(p.payloadWidth, 32u);
    EXPECT_DOUBLE_EQ(p.couplingCapacitanceF,
                     p.toggleCapacitanceF / 2.0);
    // Random data: width/2 expected toggles, width/4 expected adjacent
    // couplings per flit.  One flit per link period at frequency f
    // means the expected per-flit energy times f must recover the
    // non-idle share of the fitted per-channel dynamic power.
    const double width = static_cast<double>(p.payloadWidth);
    const double perFlitCapacitance =
        width / 2.0 * p.toggleCapacitanceF +
        width / 4.0 * p.couplingCapacitanceF;
    const double expected =
        (1.0 - p.idleFraction) * ctx.coeffA *
        static_cast<double>(ctx.linksPerChannel);
    EXPECT_NEAR(perFlitCapacitance, expected, 1e-15 * expected);
}

TEST(ToggleLinkPowerModel, OperatingPowerKeepsIdleShareAndStaticFloor)
{
    const auto ctx = standardContext();
    const auto model = buildLinkPowerModel("toggle:idle=0.25", ctx);
    const double v = 2.5;
    const double f = 1e9;
    EXPECT_DOUBLE_EQ(model->operatingPowerW(v, f),
                     0.25 * ctx.coeffA * v * v * f + ctx.coeffB);
}

TEST(ToggleLinkPowerModel, SpecKeysOverrideDefaults)
{
    const auto ctx = standardContext();
    const auto model = buildLinkPowerModel(
        "toggle:cw=3.5e-12,cc=1e-12,idle=0.3,width=16", ctx);
    const auto *toggle =
        dynamic_cast<const ToggleLinkPowerModel *>(model.get());
    ASSERT_NE(toggle, nullptr);
    EXPECT_DOUBLE_EQ(toggle->params().toggleCapacitanceF, 3.5e-12);
    EXPECT_DOUBLE_EQ(toggle->params().couplingCapacitanceF, 1e-12);
    EXPECT_DOUBLE_EQ(toggle->params().idleFraction, 0.3);
    EXPECT_EQ(toggle->params().payloadWidth, 16u);

    // cw alone keeps the Cc = Cw/2 ratio.
    const auto cwOnly = buildLinkPowerModel("toggle:cw=4e-12", ctx);
    const auto *t2 =
        dynamic_cast<const ToggleLinkPowerModel *>(cwOnly.get());
    ASSERT_NE(t2, nullptr);
    EXPECT_DOUBLE_EQ(t2->params().couplingCapacitanceF, 2e-12);

    // idle/width alone recalibrate the capacitances.
    const auto recal = buildLinkPowerModel("toggle:idle=0.8,width=64",
                                           ctx);
    const auto *t3 =
        dynamic_cast<const ToggleLinkPowerModel *>(recal.get());
    ASSERT_NE(t3, nullptr);
    EXPECT_DOUBLE_EQ(
        t3->params().toggleCapacitanceF,
        8.0 * 0.2 * ctx.coeffA *
            static_cast<double>(ctx.linksPerChannel) / (5.0 * 64.0));
}

TEST(ToggleLinkPowerModel, PayloadHashIsDeterministic)
{
    EXPECT_EQ(flitPayloadWord(77, 3), flitPayloadWord(77, 3));
    EXPECT_NE(flitPayloadWord(77, 3), flitPayloadWord(77, 4));
    EXPECT_NE(flitPayloadWord(77, 3), flitPayloadWord(78, 3));
}

TEST(ToggleLinkPowerModel, PayloadHashesPacketIdNotSlot)
{
    // Packet-table slots are reused: packets 1 and 2 below share slot
    // 0.  Their payload words must still differ, because the channel
    // hashes the 64-bit id the slot holds, not the slot.
    dvsnet::testutil::TestPackets packets;
    const dvsnet::router::Flit first = packets.single();
    const auto firstId = packets.idOf(first);
    packets.table.release(first.slot);
    const dvsnet::router::Flit second = packets.single();
    ASSERT_EQ(second.slot, first.slot);
    EXPECT_NE(flitPayloadWord(firstId, first.seq),
              flitPayloadWord(packets.idOf(second), second.seq));
    EXPECT_EQ(flitPayloadWord(packets.idOf(second), second.seq),
              flitPayloadWord(2, 0));
}

TEST(LinkPowerNetwork, ConfigValidationRejectsBadSpec)
{
    dvsnet::network::NetworkConfig cfg;
    cfg.radix = 4;
    cfg.linkPowerSpec = "nonsense";
    EXPECT_FALSE(cfg.validate().empty());
    EXPECT_THROW(dvsnet::network::Network net(cfg), ConfigError);
    cfg.linkPowerSpec = "toggle";
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(LinkPowerNetwork, ToggleBackendChargesFlitEnergyEndToEnd)
{
    dvsnet::network::ExperimentSpec spec;
    spec.network.radix = 4;
    spec.network.policy = dvsnet::network::PolicyKind::History;
    spec.network.linkPowerSpec = "toggle";
    spec.workload.avgConcurrentTasks = 6.0;
    spec.workload.sourcesPerTask = 16;
    spec.workload.meanTaskDurationCycles = 1e5;
    spec.workload.seed = 7;
    spec.warmup = 1000;
    spec.measure = 3000;
    const auto r = dvsnet::exp::runPoint(spec, 0.2, 7);
    EXPECT_GT(r.flitsEjected, 0u);
    EXPECT_GT(r.flitEnergyJ, 0.0);
    EXPECT_GT(r.totalEnergyJ, r.flitEnergyJ);
    // The ledger-agreement invariant covers the flit-energy path too.
    EXPECT_GT(r.invariantChecks, 0u);
    EXPECT_EQ(r.invariantFailures, 0u);

    // The default table backend charges no per-flit energy.
    spec.network.linkPowerSpec = "table";
    const auto rt = dvsnet::exp::runPoint(spec, 0.2, 7);
    EXPECT_EQ(rt.flitEnergyJ, 0.0);
    EXPECT_GT(rt.totalEnergyJ, 0.0);
    EXPECT_EQ(rt.invariantFailures, 0u);
}
