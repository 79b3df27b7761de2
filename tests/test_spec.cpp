/**
 * @file
 * Spec string and command-line tests: the one `<name>[:key=val,...]`
 * grammar every registry parses and the rules both surfaces share
 * (SpecGrammar), the registry and typed value getters built on it
 * (SpecRegistry), and a binary's command line read as a Spec (Config:
 * key=value and GNU flag tokens, ranged getters, the DVSNET_*
 * fallback, accepted keys).  Each registry's own content — its
 * built-ins, keys and values — is tested beside it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/fatal.hpp"
#include "common/spec.hpp"

using dvsnet::ConfigError;
using dvsnet::Registry;
using dvsnet::Spec;

namespace
{

using Params = std::vector<std::pair<std::string, std::string>>;

/** The message `read` throws, or "" when it does not throw. */
template <typename Read>
std::string
errorOf(Read read)
{
    try {
        read();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

/** `args` as the command line of a binary named "test". */
Spec
commandLine(std::vector<std::string> args)
{
    std::string prog = "/bin/test";
    std::vector<char *> argv = {prog.data()};
    for (auto &arg : args)
        argv.push_back(arg.data());
    return Spec::fromArgs(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(SpecGrammar, ParsesBareName)
{
    for (const char *text : {"uniform", "table", "successive-halving"}) {
        const Spec spec = Spec::parse(text);
        EXPECT_EQ(spec.name, text);
        EXPECT_TRUE(spec.params.empty()) << text;
        EXPECT_EQ(spec.toString(), text);
    }
}

TEST(SpecGrammar, ParsesKeyValueListAndRoundTrips)
{
    const struct
    {
        const char *text;
        const char *name;
        Params params;
    } kLists[] = {
        {"cmp:window=8,hot_nodes=4,p_hot=0.3", "cmp",
         {{"window", "8"}, {"hot_nodes", "4"}, {"p_hot", "0.3"}}},
        {"toggle:idle=0.25,width=16", "toggle",
         {{"idle", "0.25"}, {"width", "16"}}},
        {"successive-halving:candidates=32,rungs=4,step=3,slack=0.1",
         "successive-halving",
         {{"candidates", "32"}, {"rungs", "4"}, {"step", "3"},
          {"slack", "0.1"}}},
    };
    for (const auto &list : kLists) {
        const Spec spec = Spec::parse(list.text);
        EXPECT_EQ(spec.name, list.name);
        EXPECT_EQ(spec.params, list.params) << list.text;
        for (const auto &[key, value] : list.params) {
            ASSERT_NE(spec.find(key), nullptr) << key;
            EXPECT_EQ(*spec.find(key), value);
        }
        EXPECT_EQ(spec.find("missing"), nullptr);
        EXPECT_EQ(spec.toString(), list.text);
    }
}

TEST(SpecGrammar, RejectsMalformedSpecs)
{
    for (const char *text : {
             "",                        // empty text
             ":window=8", ":idle=1",    // no name before ':'
             "cmp:window", "toggle:idle",
             "successive-halving:oops",  // an item without '='
             "cmp:=8", "toggle:=0.5",
             "successive-halving:=3",    // an empty key
             "toggle:idle=0.5,",         // a trailing comma
         }) {
        EXPECT_THROW(Spec::parse(text), ConfigError) << "'" << text << "'";
    }
}

TEST(SpecRegistry, CustomRegistration)
{
    // A fresh registry: none of the process-wide built-ins.
    Registry<std::string, std::string> registry("greeting");
    registry.add("hello", "greets the context", {"to"},
                 [](const Spec &spec, const std::string &who) {
                     const std::string *to = spec.find("to");
                     return "hello, " + (to != nullptr ? *to : who);
                 });
    registry.add("bye", "takes leave", {},
                 [](const Spec &, const std::string &who) {
                     return "bye, " + who;
                 });

    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"bye", "hello"}));
    EXPECT_EQ(registry.description("hello"), "greets the context");
    EXPECT_EQ(registry.description("nope"), "");
    EXPECT_EQ(registry.build(Spec::parse("hello"), "world"),
              "hello, world");
    EXPECT_EQ(registry.build(Spec::parse("hello:to=you"), "world"),
              "hello, you");

    EXPECT_EQ(registry.validate(Spec::parse("nope")),
              (std::vector<std::string>{
                  "unknown greeting 'nope' (registered: bye, hello)"}));
    EXPECT_EQ(registry.validate(Spec::parse("hello:x=1")),
              (std::vector<std::string>{
                  "greeting 'hello': unknown key 'x' (accepted: to)"}));
    EXPECT_EQ(registry.validate(Spec::parse("bye:x=1")),
              (std::vector<std::string>{
                  "greeting 'bye': unknown key 'x' (takes no keys)"}));
    EXPECT_THROW(registry.build(Spec::parse("nope"), "world"),
                 ConfigError);
    EXPECT_THROW(registry.build(Spec::parse("bye:x=1"), "world"),
                 ConfigError);

    // Re-registering a name replaces its entry in place.
    registry.add("bye", "waves", {"wave"},
                 [](const Spec &, const std::string &) {
                     return std::string("o/");
                 });
    EXPECT_EQ(registry.names().size(), 2u);
    EXPECT_EQ(registry.description("bye"), "waves");
    EXPECT_EQ(registry.build(Spec::parse("bye:wave=1"), "world"), "o/");
}

TEST(SpecRegistry, GettersReadInRangeValuesAndDefaults)
{
    const Spec spec =
        Spec::parse("s:x=0.5,raw=nan,i=65535,n=-2147483648,c=010,b=true");
    EXPECT_DOUBLE_EQ(spec.number("x", 0.0, 0.0, 1.0), 0.5);
    EXPECT_TRUE(std::isnan(spec.number("raw", 0.0)));
    EXPECT_EQ(spec.integer<std::uint16_t>("i", 0), 65535);
    EXPECT_EQ(spec.integer<std::int32_t>("n", 0),
              std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(spec.count("c", 0), 10u);  // decimal, not octal
    EXPECT_TRUE(spec.boolean("b", false));

    EXPECT_DOUBLE_EQ(spec.number("absent", 2.5, 0.0, 1.0), 2.5);
    EXPECT_EQ(spec.integer<std::int32_t>("absent", -7), -7);
    EXPECT_EQ(spec.count("absent", 3), 3u);
    EXPECT_FALSE(spec.boolean("absent", false));
    EXPECT_EQ(Spec::parse("s:c=9223372036854775807").count("c", 0),
              std::uint64_t{9223372036854775807});
}

TEST(SpecRegistry, GettersRejectValuesOutsideTheRules)
{
    const auto value = [](const std::string &text) {
        return Spec::parse("s:v=" + text);
    };
    for (const char *bad :
         {"nan", "inf", "-inf", "1.5", "-0.5", "+1", " 1", "1 ", "abc", "",
          "0x1p-1"}) {
        EXPECT_THROW(value(bad).number("v", 0.0, 0.0, 1.0), ConfigError)
            << "'" << bad << "'";
    }
    for (const char *bad : {"+1", " 1", "1 ", "abc", ""}) {
        EXPECT_THROW(value(bad).number("v", 0.0), ConfigError)
            << "'" << bad << "'";
    }
    for (const char *bad :
         {"65536", "-1", "+1", " 1", "1.0", "0x10", "1e3", ""}) {
        EXPECT_THROW(value(bad).integer<std::uint16_t>("v", 0), ConfigError)
            << "'" << bad << "'";
    }
    for (const char *bad : {"4294967297", "2147483648", "-2147483649"}) {
        EXPECT_THROW(value(bad).integer<std::int32_t>("v", 0), ConfigError)
            << "'" << bad << "'";
    }
    for (const char *bad : {"-1", "+1", " 1", "1 ", "0x10", "1e3", "",
                            "9223372036854775808"}) {
        EXPECT_THROW(value(bad).count("v", 0), ConfigError)
            << "'" << bad << "'";
    }
    for (const char *bad : {"2", "", "y", "t", "enable", " 1"}) {
        EXPECT_THROW(value(bad).boolean("v", false), ConfigError)
            << "'" << bad << "'";
    }

    // The message names the spec, the key, the rule and the value.
    EXPECT_EQ(errorOf([&] { value("nan").number("v", 0.0, 0.0, 1.0); }),
              "spec 's:v=nan': key 'v' must be a finite number in [0, 1], "
              "got 'nan'");
    EXPECT_EQ(errorOf([&] { value("-1").count("v", 0); }),
              "spec 's:v=-1': key 'v' must be a non-negative integer (at "
              "most 2^63 - 1), got '-1'");
    EXPECT_EQ(errorOf([&] { value("9").reject("v", "must be odd"); }),
              "spec 's:v=9': key 'v' must be odd, got '9'");
}

TEST(SpecGrammar, RefusesRepeatedKeysOnBothSurfaces)
{
    EXPECT_EQ(errorOf([] { Spec::parse("two-level:tasks=5,tasks=abc"); }),
              "spec 'two-level:tasks=5,tasks=abc': key 'tasks' must be "
              "given at most once, got 'abc'");
    EXPECT_THROW(Spec::parse("s:a=1,b=2,a=1"), ConfigError);
    EXPECT_EQ(errorOf([] { commandLine({"rate=1", "rate=2"}); }),
              "test: key 'rate' must be given at most once, got '2'");
    EXPECT_THROW(commandLine({"--seed", "1", "seed=1"}), ConfigError);
    EXPECT_THROW(commandLine({"--seed=1", "--seed", "2"}), ConfigError);
}

TEST(SpecGrammar, RefusesTheSameNumbersOnBothSurfaces)
{
    for (const char *bad : {"0x1p-1", "+0.5", " 0.5", "0.5 ", "0,5", ""}) {
        const std::string item = std::string("rate=") + bad;
        EXPECT_THROW(commandLine({item}).number("rate", 1.0, 1e-6, 64.0),
                     ConfigError)
            << "'" << bad << "'";
        EXPECT_THROW(Spec::parse("s:" + item).number("rate", 1.0, 1e-6, 64.0),
                     ConfigError)
            << "'" << bad << "'";
    }
    EXPECT_EQ(errorOf([] {
                  commandLine({"rate=0x1p-1"}).number("rate", 1.0, 1e-6,
                                                      64.0);
              }),
              "test: key 'rate' must be a finite number in [1e-06, 64], "
              "got '0x1p-1'");
    EXPECT_DOUBLE_EQ(commandLine({"rate=0.5"}).number("rate", 1.0, 0.0, 1.0),
                     Spec::parse("s:rate=0.5").number("rate", 1.0, 0.0, 1.0));
}

TEST(SpecGrammar, ReadsEveryBooleanSpellingTheSameOnBothSurfaces)
{
    const struct
    {
        const char *text;
        bool value;
    } kSpellings[] = {
        {"1", true},     {"true", true},   {"yes", true},  {"on", true},
        {"TRUE", true},  {"Yes", true},    {"ON", true},   {"0", false},
        {"false", false}, {"no", false},   {"off", false}, {"FALSE", false},
        {"No", false},   {"oFF", false},
    };
    for (const auto &spelling : kSpellings) {
        const std::string item = std::string("csv=") + spelling.text;
        EXPECT_EQ(commandLine({item}).boolean("csv", !spelling.value),
                  spelling.value)
            << item;
        EXPECT_EQ(Spec::parse("s:" + item).boolean("csv", !spelling.value),
                  spelling.value)
            << item;
    }
    EXPECT_EQ(errorOf([] { commandLine({"csv=2"}).boolean("csv", false); }),
              "test: key 'csv' must be a boolean (1/0, true/false, yes/no "
              "or on/off), got '2'");
}

// A command line read as a Spec.  Every refused value is a ConfigError
// naming the binary (or the DVSNET_* variable), the key, the rule and
// the value.

TEST(Config, ParsesKeyValueArgs)
{
    const Spec args = commandLine(
        {"cycles=100", "--rate", "1.5", "--csv=true", "json=a=b.json"});
    EXPECT_EQ(args.name, "test");
    EXPECT_TRUE(args.commandLine);
    EXPECT_EQ(args.integer("cycles", 0), 100);
    EXPECT_DOUBLE_EQ(args.number("rate", 0.0), 1.5);
    EXPECT_TRUE(args.boolean("csv", false));
    EXPECT_EQ(args.text("json", ""), "a=b.json");

    EXPECT_EQ(errorOf([] { commandLine({"--threads"}); }),
              "test: flag '--threads' expects a value");
    for (const char *bad : {"cycles", "=5", "--=5"})
        EXPECT_THROW(commandLine({bad}), ConfigError) << bad;
}

TEST(Config, DefaultsWhenAbsent)
{
    const Spec args = commandLine({});
    EXPECT_EQ(args.integer("missing", 7), 7);
    EXPECT_DOUBLE_EQ(args.number("missing", 2.5), 2.5);
    EXPECT_DOUBLE_EQ(args.number("missing", 0.25, 1.0, 2.0), 0.25);
    EXPECT_FALSE(args.boolean("missing", false));
    EXPECT_EQ(args.text("missing", "x"), "x");
    EXPECT_EQ(args.count("missing", 7, 10), 7u);
}

TEST(Config, HasReportsPresence)
{
    const Spec args = commandLine({"k=v", "empty="});
    EXPECT_EQ(args.find("missing"), nullptr);
    ASSERT_NE(args.find("k"), nullptr);
    EXPECT_EQ(*args.find("k"), "v");
    ASSERT_NE(args.find("empty"), nullptr);
    EXPECT_EQ(args.text("empty", "x"), "");
}

TEST(Config, BoolAcceptsCommonSpellings)
{
    for (const char *v : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
        EXPECT_TRUE(commandLine({std::string("b=") + v}).boolean("b", false))
            << v;
    }
    for (const char *v : {"0", "false", "no", "off", "FALSE"}) {
        EXPECT_FALSE(commandLine({std::string("b=") + v}).boolean("b", true))
            << v;
    }
}

TEST(Config, HexIntegers)
{
    // Integers and counts are decimal, like spec strings': no base
    // prefix, and a leading zero is not octal.
    const Spec args = commandLine({"addr=0x10", "seed=0x10", "octal=010"});
    EXPECT_EQ(errorOf([&] { args.integer("addr", 0); }),
              "test: key 'addr' must be an integer in [-2147483648, "
              "2147483647], got '0x10'");
    EXPECT_EQ(errorOf([&] { args.countEnv("seed", 0); }),
              "test: key 'seed' must be a non-negative integer (at most "
              "2^63 - 1), got '0x10'");
    EXPECT_EQ(args.integer("octal", 0), 10);
    EXPECT_EQ(args.count("octal", 0), 10u);
}

TEST(Config, IntegersAreReadAtTheWidthTheyLandIn)
{
    const Spec args = commandLine({"radix=4294967298", "nodes=-1", "node=64",
                                   "plus=+1", "space= 1", "ok=63"});
    EXPECT_EQ(errorOf([&] { args.integer<std::int32_t>("radix", 8); }),
              "test: key 'radix' must be an integer in [-2147483648, "
              "2147483647], got '4294967298'");
    EXPECT_EQ(errorOf([&] { args.integer<std::uint32_t>("nodes", 0); }),
              "test: key 'nodes' must be an integer in [0, 4294967295], got "
              "'-1'");
    EXPECT_EQ(errorOf([&] { args.integer<std::int32_t>("node", 0, 0, 63); }),
              "test: key 'node' must be an integer in [0, 63], got '64'");
    EXPECT_THROW(args.integer("plus", 0), ConfigError);
    EXPECT_THROW(args.integer("space", 0), ConfigError);
    EXPECT_EQ(args.integer<std::int32_t>("ok", 0, 0, 63), 63);
    EXPECT_EQ(args.integer<std::uint32_t>("missing", 7u), 7u);
}

TEST(Config, RangedCountsAndNumbersNameTheRange)
{
    ::setenv("DVSNET_TESTKEY_PHASE", "5", 1);
    const Spec args = commandLine(
        {"interval=0", "rate=nan", "zero=0", "big=inf", "half=0.5"});
    EXPECT_EQ(errorOf([&] { args.count("interval", 2000, 1); }),
              "test: key 'interval' must be an integer in [1, "
              "9223372036854775807], got '0'");
    EXPECT_EQ(errorOf([&] { args.countEnv("testkey_phase", 80000, 10, 100); }),
              "environment DVSNET_TESTKEY_PHASE: key 'testkey_phase' must "
              "be an integer in [10, 100], got '5'");
    ::unsetenv("DVSNET_TESTKEY_PHASE");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(errorOf([&] { args.number("rate", 1.0, 1e-6, inf); }),
              "test: key 'rate' must be a finite number >= 1e-06, got 'nan'");
    EXPECT_EQ(errorOf([&] { args.number("zero", 1.0, 1e-6, inf); }),
              "test: key 'zero' must be a finite number >= 1e-06, got '0'");
    EXPECT_EQ(errorOf([&] { args.number("big", 1.0, 0.0, 1.0); }),
              "test: key 'big' must be a finite number in [0, 1], got 'inf'");
    EXPECT_DOUBLE_EQ(args.number("half", 1.0, 0.0, 1.0), 0.5);
}

TEST(Config, NegativeNumbers)
{
    const Spec args = commandLine({"n=-5", "d=-2.5"});
    EXPECT_EQ(args.integer("n", 0), -5);
    EXPECT_DOUBLE_EQ(args.number("d", 0.0), -2.5);
}

TEST(Config, EnvFallbackForIntEnv)
{
    ::setenv("DVSNET_TESTKEY_ONLY", "123", 1);
    const Spec args = commandLine({});
    EXPECT_EQ(args.countEnv("testkey_only", 7), 123u);
    EXPECT_EQ(args.count("testkey_only", 7), 7u);  // no fallback
    ::unsetenv("DVSNET_TESTKEY_ONLY");
    EXPECT_EQ(args.countEnv("testkey_only", 7), 7u);
}

TEST(Config, ExplicitKeyBeatsEnv)
{
    ::setenv("DVSNET_PRIO", "1", 1);
    EXPECT_EQ(commandLine({"prio=2"}).countEnv("prio", 0), 2u);
    // A spec string reads the environment the same way.
    EXPECT_EQ(Spec::parse("s:prio=3").countEnv("prio", 0), 3u);
    EXPECT_EQ(Spec::parse("s").countEnv("prio", 0), 1u);
    ::unsetenv("DVSNET_PRIO");
}

TEST(Config, CountsReachInt64Max)
{
    const Spec args = commandLine({"seed=9223372036854775807", "mask=0010"});
    EXPECT_EQ(args.count("seed", 0), 9223372036854775807ull);
    EXPECT_EQ(args.count("mask", 0), 10u);
    EXPECT_EQ(args.count("missing", 9), 9u);
}

TEST(Config, NegativeCountIsFatalNotWrapped)
{
    const Spec args = commandLine({"seed=-1", "cycles=9223372036854775808"});
    EXPECT_EQ(errorOf([&] { args.countEnv("seed", 0); }),
              "test: key 'seed' must be a non-negative integer (at most "
              "2^63 - 1), got '-1'");
    EXPECT_EQ(errorOf([&] { args.count("cycles", 0); }),
              "test: key 'cycles' must be a non-negative integer (at most "
              "2^63 - 1), got '9223372036854775808'");

    ::setenv("DVSNET_TESTKEY_NEGATIVE", "-5", 1);
    EXPECT_EQ(errorOf([&] { args.countEnv("testkey_negative", 0); }),
              "environment DVSNET_TESTKEY_NEGATIVE: key 'testkey_negative' "
              "must be a non-negative integer (at most 2^63 - 1), got '-5'");
    ::unsetenv("DVSNET_TESTKEY_NEGATIVE");
}

TEST(Config, EntriesExposesAll)
{
    const Spec args = commandLine({"b=2", "--a", "1"});
    EXPECT_EQ(args.params,
              (std::vector<std::pair<std::string, std::string>>{
                  {"b", "2"}, {"a", "1"}}));
}

TEST(Config, RejectUnknownKeysNamesTheKeyAndTheAcceptedOnes)
{
    Spec args = commandLine({"in=a.csv", "nodes=16"});
    EXPECT_NO_THROW(args.rejectUnknownKeys({"in", "out", "nodes"}));
    args = commandLine({"in=a.csv", "node=16"});
    EXPECT_EQ(errorOf([&] { args.rejectUnknownKeys({"in", "out", "nodes"}); }),
              "test: unknown key 'node' (accepted: in, out, nodes)");
}
