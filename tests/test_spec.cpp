/**
 * @file
 * Spec string tests: the one `<name>[:key=val,...]` grammar every
 * registry parses (SpecGrammar), and the registry and typed value
 * getters built on it (SpecRegistry).  Each registry's own content —
 * its built-ins, keys and values — is tested beside it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
                  "greeting 'hello': unknown key 'x' (valid: to)"}));
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
    for (const char *bad : {"yes", "TRUE", "2", ""}) {
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
