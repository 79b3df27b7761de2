/**
 * @file
 * Deterministic mutation fuzzing of the JSON parser.  Three real
 * documents — a committed results/ artifact, a search-journal record
 * line and toJson(RunResults) of a small run — have bits flipped, bytes
 * inserted and deleted, and are truncated; brackets and objects nested
 * 10^5 deep are parsed alone and around a real document.  Every mutant
 * must parse to a value or raise ConfigError — never crash, overflow the
 * stack or trip a sanitizer — and a value that parses must dump to text
 * that parses back to the same dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/fatal.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "network/metrics.hpp"
#include "search/cache.hpp"
#include "search/driver.hpp"

using dvsnet::ConfigError;
using dvsnet::Json;
using dvsnet::Rng;

namespace
{

/** One seed document for the mutators. */
struct Document
{
    std::string name;
    std::string text;
};

/** The three real documents, built once. */
const std::vector<Document> &
documents()
{
    static const std::vector<Document> docs = [] {
        std::vector<Document> out;
        const std::string path =
            std::string(DVSNET_SOURCE_DIR) +
            "/results/bench_fig10_dvs_100tasks.json";
        std::ifstream in(path, std::ios::binary);
        out.push_back({"results artifact",
                       {std::istreambuf_iterator<char>(in), {}}});

        dvsnet::network::ExperimentSpec spec;
        spec.network.radix = 4;
        spec.workload.avgConcurrentTasks = 10;
        spec.workload.meanTaskDurationCycles = 2e4;
        spec.workload.sourcesPerTask = 16;
        spec.warmup = 300;
        spec.measure = 700;
        const double rate = 0.4;
        const std::uint64_t seed = 7;
        dvsnet::search::EvalRecord record;
        record.key = dvsnet::search::evalKey(spec, rate, seed);
        record.seed = seed;
        record.rate = rate;
        record.warmup = spec.warmup;
        record.measure = spec.measure;
        record.params = dvsnet::search::Candidate{}.toJson();
        record.results = dvsnet::exp::runPoint(spec, rate, seed);
        out.push_back({"journal record", record.toJson().dump()});
        out.push_back(
            {"run results", dvsnet::network::toJson(record.results).dump(2)});
        return out;
    }();
    return docs;
}

/**
 * Parse `text`: it must yield a value whose dump parses back to the same
 * dump, or raise ConfigError.  Any other exception fails the test.
 * Returns whether it parsed.
 */
bool
tryMutant(const std::string &text, const std::string &what)
{
    Json value;
    try {
        value = Json::parse(text);
    } catch (const ConfigError &) {
        return false;
    }
    const std::string dumped = value.dump();
    EXPECT_EQ(Json::parse(dumped).dump(), dumped) << what;
    return true;
}

} // namespace

TEST(JsonFuzz, SeedDocumentsParse)
{
    for (const Document &doc : documents()) {
        ASSERT_GT(doc.text.size(), 200u) << doc.name;
        EXPECT_TRUE(tryMutant(doc.text, doc.name));
    }
}

TEST(JsonFuzz, BitFlipsParseOrRaiseConfigError)
{
    Rng rng(2501);
    for (const Document &doc : documents()) {
        std::size_t parsed = 0;
        for (int k = 0; k < 600; ++k) {
            std::string text = doc.text;
            for (std::uint64_t n = 1 + rng.uniformInt(3); n > 0; --n) {
                const std::size_t at = rng.uniformInt(text.size());
                text[at] =
                    static_cast<char>(text[at] ^ (1 << rng.uniformInt(8)));
            }
            parsed += tryMutant(text, doc.name + ", bit flips, round " +
                                          std::to_string(k));
        }
        // Flips inside digits and strings keep the document valid.
        EXPECT_GT(parsed, 0u) << doc.name;
    }
}

TEST(JsonFuzz, InsertsAndDeletesParseOrRaiseConfigError)
{
    // Inserted bytes come from JSON's own syntax half the time, so the
    // mutants reach deeper than the first unexpected character.
    const std::string syntax = "{}[]\":,-+.0123456789eE \t\n\\u/truefalsn";
    Rng rng(2502);
    for (const Document &doc : documents()) {
        std::size_t parsed = 0;
        for (int k = 0; k < 600; ++k) {
            std::string text = doc.text;
            for (std::uint64_t n = 1 + rng.uniformInt(3); n > 0; --n) {
                const std::size_t at = rng.uniformInt(text.size() + 1);
                if (rng.bernoulli(0.5)) {
                    const std::size_t len = std::min<std::size_t>(
                        1 + rng.uniformInt(8), text.size() - at);
                    text.erase(at, len);
                } else {
                    const char c =
                        rng.bernoulli(0.5)
                            ? syntax[rng.uniformInt(syntax.size())]
                            : static_cast<char>(rng.uniformInt(256));
                    text.insert(at, 1 + rng.uniformInt(4), c);
                }
            }
            parsed += tryMutant(text, doc.name + ", inserts/deletes, round " +
                                          std::to_string(k));
        }
        EXPECT_GT(parsed, 0u) << doc.name;
    }
}

TEST(JsonFuzz, TruncationsRaiseConfigError)
{
    // Each document is one object, so every prefix that stops before its
    // closing brace is incomplete.
    for (const Document &doc : documents()) {
        const std::size_t end = doc.text.find_last_not_of(" \t\r\n") + 1;
        const std::size_t step = std::max<std::size_t>(1, end / 2000);
        for (std::size_t at = 0; at < end; at += step) {
            EXPECT_FALSE(tryMutant(doc.text.substr(0, at),
                                   doc.name + ", truncated at " +
                                       std::to_string(at)));
        }
    }
}

TEST(JsonFuzz, DeepNestingRaisesConfigError)
{
    const std::size_t depth = 100000;
    const std::string &real = documents().front().text;
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"arrays", std::string(depth, '[') + std::string(depth, ']')},
        {"unclosed arrays", std::string(depth, '[')},
        {"arrays around a real document",
         std::string(depth, '[') + real + std::string(depth, ']')},
        {"objects", [&] {
             std::string text;
             for (std::size_t i = 0; i < depth; ++i)
                 text += "{\"a\":";
             text += "1";
             text.append(depth, '}');
             return text;
         }()},
        {"mixed", [&] {
             std::string text;
             for (std::size_t i = 0; i < depth; ++i)
                 text += i % 2 == 0 ? "[" : "{\"k\":";
             return text;
         }()},
    };
    for (const auto &[name, text] : cases) {
        try {
            Json::parse(text);
            ADD_FAILURE() << name << ": nesting 10^5 deep parsed";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("nesting too deep"),
                      std::string::npos)
                << name << ": " << e.what();
        }
    }
}
