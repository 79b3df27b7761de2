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
    Config cfg;
    cfg.set("addr", "0x10");
    EXPECT_EQ(cfg.getInt("addr", 0), 16);
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
    Config cfg = parse({"seed=9223372036854775807", "mask=0x10"});
    EXPECT_EQ(cfg.getCount("seed", 0), 9223372036854775807ull);
    EXPECT_EQ(cfg.getCount("mask", 0), 16u);
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
