/** @file Config parsing tests: key=value args, typed getters, env fallback. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/config.hpp"
#include "common/fatal.hpp"

using dvsnet::Config;

namespace
{

Config
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "test";
    argv.push_back(prog.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return Config::fromArgs(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Config, ParsesKeyValueArgs)
{
    Config cfg = parse({"cycles=100", "rate=1.5", "csv=true"});
    EXPECT_EQ(cfg.getInt("cycles", 0), 100);
    EXPECT_DOUBLE_EQ(cfg.getDouble("rate", 0.0), 1.5);
    EXPECT_TRUE(cfg.getBool("csv", false));
}

TEST(Config, DefaultsWhenAbsent)
{
    Config cfg;
    EXPECT_EQ(cfg.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 2.5), 2.5);
    EXPECT_FALSE(cfg.getBool("missing", false));
    EXPECT_EQ(cfg.getString("missing", "x"), "x");
}

TEST(Config, HasReportsPresence)
{
    Config cfg;
    EXPECT_FALSE(cfg.has("k"));
    cfg.set("k", "v");
    EXPECT_TRUE(cfg.has("k"));
    EXPECT_EQ(cfg.getString("k", ""), "v");
}

TEST(Config, BoolAcceptsCommonSpellings)
{
    Config cfg;
    for (const char *v : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
        cfg.set("b", v);
        EXPECT_TRUE(cfg.getBool("b", false)) << v;
    }
    for (const char *v : {"0", "false", "no", "off", "FALSE"}) {
        cfg.set("b", v);
        EXPECT_FALSE(cfg.getBool("b", true)) << v;
    }
}

TEST(Config, HexIntegers)
{
    // Integers and counts are decimal, like spec strings': no base
    // prefix, and a leading zero is not octal.
    Config cfg = parse({"addr=0x10", "seed=0x10", "octal=010"});
    EXPECT_EXIT(cfg.getInt("addr", 0), ::testing::ExitedWithCode(1),
                "config key 'addr': '0x10' is not an integer in "
                "\\[-2147483648, 2147483647\\]");
    EXPECT_EXIT(cfg.getCountEnv("seed", 0), ::testing::ExitedWithCode(1),
                "config key 'seed': '0x10' is not a non-negative integer");
    EXPECT_EQ(cfg.getInt("octal", 0), 10);
    EXPECT_EQ(cfg.getCount("octal", 0), 10u);
}

TEST(Config, IntegersAreReadAtTheWidthTheyLandIn)
{
    Config cfg = parse({"radix=4294967298", "nodes=-1", "node=64",
                        "plus=+1", "space= 1", "ok=63"});
    EXPECT_EXIT(cfg.getInt<std::int32_t>("radix", 8),
                ::testing::ExitedWithCode(1),
                "config key 'radix': '4294967298' is not an integer in "
                "\\[-2147483648, 2147483647\\]");
    EXPECT_EXIT(cfg.getInt<std::uint32_t>("nodes", 0),
                ::testing::ExitedWithCode(1),
                "config key 'nodes': '-1' is not an integer in "
                "\\[0, 4294967295\\]");
    EXPECT_EXIT(cfg.getInt<std::int32_t>("node", 0, 0, 63),
                ::testing::ExitedWithCode(1),
                "config key 'node': '64' is not an integer in \\[0, 63\\]");
    EXPECT_EXIT(cfg.getInt("plus", 0), ::testing::ExitedWithCode(1),
                "config key 'plus'");
    EXPECT_EXIT(cfg.getInt("space", 0), ::testing::ExitedWithCode(1),
                "config key 'space'");
    EXPECT_EQ(cfg.getInt<std::int32_t>("ok", 0, 0, 63), 63);
    EXPECT_EQ(cfg.getInt<std::uint32_t>("missing", 7u), 7u);
}

TEST(Config, RangedCountsAndNumbersNameTheRange)
{
    ::setenv("DVSNET_TESTKEY_PHASE", "5", 1);
    Config cfg = parse({"interval=0", "rate=nan", "zero=0", "big=inf",
                        "half=0.5"});
    EXPECT_EXIT(cfg.getCount("interval", 2000, 1),
                ::testing::ExitedWithCode(1),
                "config key 'interval': '0' is not a count in "
                "\\[1, 9223372036854775807\\]");
    EXPECT_EXIT(cfg.getCountEnv("testkey_phase", 80000, 10, 100),
                ::testing::ExitedWithCode(1),
                "environment DVSNET_TESTKEY_PHASE='5' is not a count in "
                "\\[10, 100\\]");
    ::unsetenv("DVSNET_TESTKEY_PHASE");
    EXPECT_EXIT(cfg.getDouble("rate", 1.0, 1e-6),
                ::testing::ExitedWithCode(1),
                "config key 'rate': 'nan' is not a finite number >= 1e-06");
    EXPECT_EXIT(cfg.getDouble("zero", 1.0, 1e-6),
                ::testing::ExitedWithCode(1),
                "config key 'zero': '0' is not a finite number >= 1e-06");
    EXPECT_EXIT(cfg.getDouble("big", 1.0, 0.0, 1.0),
                ::testing::ExitedWithCode(1),
                "config key 'big': 'inf' is not a finite number in "
                "\\[0, 1\\]");
    EXPECT_DOUBLE_EQ(cfg.getDouble("half", 1.0, 0.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 0.25, 1.0, 2.0), 0.25);
    EXPECT_EQ(cfg.getCount("missing", 7, 10), 7u);
}

TEST(Config, NegativeNumbers)
{
    Config cfg;
    cfg.set("n", "-5");
    cfg.set("d", "-2.5");
    EXPECT_EQ(cfg.getInt("n", 0), -5);
    EXPECT_DOUBLE_EQ(cfg.getDouble("d", 0.0), -2.5);
}

TEST(Config, EnvFallbackForIntEnv)
{
    ::setenv("DVSNET_TESTKEY_ONLY", "123", 1);
    Config cfg;
    EXPECT_EQ(cfg.getCountEnv("testkey_only", 7), 123u);
    ::unsetenv("DVSNET_TESTKEY_ONLY");
    EXPECT_EQ(cfg.getCountEnv("testkey_only", 7), 7u);
}

TEST(Config, ExplicitKeyBeatsEnv)
{
    ::setenv("DVSNET_PRIO", "1", 1);
    Config cfg;
    cfg.set("prio", "2");
    EXPECT_EQ(cfg.getCountEnv("prio", 0), 2u);
    ::unsetenv("DVSNET_PRIO");
}

TEST(Config, CountsReachInt64Max)
{
    Config cfg = parse({"seed=9223372036854775807", "mask=0010"});
    EXPECT_EQ(cfg.getCount("seed", 0), 9223372036854775807ull);
    EXPECT_EQ(cfg.getCount("mask", 0), 10u);
    EXPECT_EQ(cfg.getCount("missing", 9), 9u);
}

TEST(Config, NegativeCountIsFatalNotWrapped)
{
    Config cfg = parse({"seed=-1", "cycles=9223372036854775808"});
    EXPECT_EXIT(cfg.getCountEnv("seed", 0), ::testing::ExitedWithCode(1),
                "config key 'seed': '-1' is not a non-negative integer");
    EXPECT_EXIT(cfg.getCount("cycles", 0), ::testing::ExitedWithCode(1),
                "config key 'cycles': '9223372036854775808' is not a "
                "non-negative integer");

    ::setenv("DVSNET_TESTKEY_NEGATIVE", "-5", 1);
    EXPECT_EXIT(cfg.getCountEnv("testkey_negative", 0),
                ::testing::ExitedWithCode(1),
                "environment DVSNET_TESTKEY_NEGATIVE='-5' is not a "
                "non-negative integer");
    ::unsetenv("DVSNET_TESTKEY_NEGATIVE");
}

TEST(Config, EntriesExposesAll)
{
    Config cfg;
    cfg.set("a", "1");
    cfg.set("b", "2");
    EXPECT_EQ(cfg.entries().size(), 2u);
}

TEST(Config, RejectUnknownKeysNamesTheKeyAndTheAcceptedOnes)
{
    Config c;
    c.set("in", "a.csv");
    c.set("nodes", "16");
    EXPECT_NO_THROW(c.rejectUnknownKeys({"in", "out", "nodes"}, "convert"));
    c.set("node", "16");
    try {
        c.rejectUnknownKeys({"in", "out", "nodes"}, "convert");
        ADD_FAILURE() << "a misspelled key was accepted";
    } catch (const dvsnet::ConfigError &e) {
        EXPECT_STREQ(e.what(), "convert: unknown key 'node' (accepted: in, "
                               "out, nodes)");
    }
}
