/**
 * @file
 * Deterministic mutation fuzzing of the search journal loader.  The
 * journal of a small real-network search is bit-flipped, overwritten,
 * truncated at every offset of its header and first records, and has
 * its values retyped: numbers quoted, negated or given a fraction, and
 * strings unquoted.  Every mutant is loaded through ResultCache::load:
 * it must load or raise ConfigError — never crash or trip a sanitizer —
 * and every record it keeps must read back as the Candidate the front
 * table prints.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "search/driver.hpp"

using dvsnet::ConfigError;
using dvsnet::Json;
using dvsnet::Rng;
using dvsnet::search::Candidate;
using dvsnet::search::ResultCache;
using dvsnet::search::SearchConfig;
using dvsnet::search::SearchDriver;

namespace
{

std::string
tempPath(const char *suffix)
{
    return ::testing::TempDir() + "/dvsnet_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** A finished two-rung search over three candidates on a 4x4 mesh. */
std::string
realJournal()
{
    SearchConfig config;
    config.base.network.radix = 4;
    config.base.workload.avgConcurrentTasks = 10;
    config.base.workload.meanTaskDurationCycles = 2e4;
    config.base.workload.sourcesPerTask = 16;
    config.injectionRate = 0.4;
    config.randomCandidates = 1;
    config.threads = 1;
    Candidate low;
    low.tlLow = 0.15;
    low.tlHigh = 0.25;
    config.seeded = {Candidate{}, low};
    dvsnet::search::RungSpec quick;
    quick.warmup = 300;
    quick.measure = 500;
    dvsnet::search::RungSpec full;
    full.warmup = 300;
    full.measure = 1000;
    config.rungs = {quick, full};
    config.base.warmup = full.warmup;
    config.base.measure = full.measure;
    config.journalPath = tempPath("_valid.jsonl");
    SearchDriver(config).run();
    const std::string bytes = readFile(config.journalPath);
    std::remove(config.journalPath.c_str());
    return bytes;
}

/**
 * Load `bytes` as a journal.  Every record the load keeps must carry a
 * parameter echo Candidate::fromJson accepts; anything else must be a
 * ConfigError.  Returns whether the mutant loaded.
 */
bool
tryMutant(const std::string &bytes, const std::vector<std::string> &keys,
          const std::string &what)
{
    const std::string path = tempPath(".jsonl");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    ResultCache cache;
    try {
        cache.load(path);
    } catch (const ConfigError &) {
        std::remove(path.c_str());
        return false;
    }
    std::remove(path.c_str());
    for (const auto &key : keys) {
        if (const auto *record = cache.find(key)) {
            EXPECT_NO_THROW(Candidate::fromJson(record->params)) << what;
        }
    }
    return true;
}

/** The valid journal and the keys of its records. */
struct Journal
{
    std::string bytes;
    std::vector<std::string> keys;
};

Journal
validJournal()
{
    Journal j;
    j.bytes = realJournal();
    std::size_t line = j.bytes.find('\n') + 1;  // past the header
    while (line < j.bytes.size()) {
        const std::size_t end = j.bytes.find('\n', line);
        j.keys.push_back(Json::parse(j.bytes.substr(line, end - line))
                             .find("key")
                             ->asString());
        line = end + 1;
    }
    return j;
}

/** The [begin, end) spans of every number and string value. */
struct Tokens
{
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    std::vector<std::pair<std::size_t, std::size_t>> strings;
};

Tokens
scanValues(const std::string &text)
{
    Tokens t;
    for (std::size_t i = 0; i < text.size();) {
        if (text[i] == '"') {
            const std::size_t end = text.find('"', i + 1) + 1;
            // A key is followed by ':'; only values are retyped.
            if (end < text.size() && text[end] != ':')
                t.strings.emplace_back(i, end);
            i = end;
        } else if (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')) {
            const std::size_t end =
                text.find_first_not_of("0123456789+-.eE", i);
            t.numbers.emplace_back(i, end);
            i = end;
        } else {
            ++i;
        }
    }
    return t;
}

} // namespace

TEST(SearchJournalFuzz, BitFlipsLoadOrRaiseConfigError)
{
    const Journal valid = validJournal();
    ASSERT_GE(valid.keys.size(), 4u);
    Rng rng(2003);
    std::size_t loaded = 0;
    for (int k = 0; k < 600; ++k) {
        std::string bytes = valid.bytes;
        for (std::uint64_t n = 1 + rng.uniformInt(3); n > 0; --n) {
            const std::size_t at = rng.uniformInt(bytes.size());
            bytes[at] =
                static_cast<char>(bytes[at] ^ (1 << rng.uniformInt(8)));
        }
        loaded += tryMutant(bytes, valid.keys,
                            "bit flips, round " + std::to_string(k));
    }
    EXPECT_GT(loaded, 0u);
}

TEST(SearchJournalFuzz, OverwritesLoadOrRaiseConfigError)
{
    const Journal valid = validJournal();
    const std::string alphabet = "{}[]\":,-.0123456789eE \ntruefalsn";
    Rng rng(2004);
    std::size_t loaded = 0;
    for (int k = 0; k < 600; ++k) {
        std::string bytes = valid.bytes;
        const std::size_t at = rng.uniformInt(bytes.size());
        bytes[at] = alphabet[rng.uniformInt(alphabet.size())];
        loaded += tryMutant(bytes, valid.keys,
                            "overwrite at " + std::to_string(at));
    }
    EXPECT_GT(loaded, 0u);
}

TEST(SearchJournalFuzz, TruncationsLoadOrRaiseConfigError)
{
    const Journal valid = validJournal();
    // Every offset through the header and the first two records, then
    // a stride over the rest.
    std::size_t dense = valid.bytes.find('\n') + 1;
    for (int r = 0; r < 2; ++r)
        dense = valid.bytes.find('\n', dense) + 1;
    std::size_t loaded = 0;
    for (std::size_t n = 0; n < valid.bytes.size();
         n += n < dense ? 1 : 37) {
        loaded += tryMutant(valid.bytes.substr(0, n), valid.keys,
                            "truncated to " + std::to_string(n));
    }
    EXPECT_GT(loaded, 0u);
}

TEST(SearchJournalFuzz, RetypedValuesLoadOrRaiseConfigError)
{
    const Journal valid = validJournal();
    const Tokens tokens = scanValues(valid.bytes);
    ASSERT_FALSE(tokens.numbers.empty());
    ASSERT_FALSE(tokens.strings.empty());
    Rng rng(2005);
    std::size_t loaded = 0;
    for (int k = 0; k < 800; ++k) {
        std::string bytes = valid.bytes;
        if (rng.bernoulli(0.25)) {
            // A string value loses its quotes.
            const auto [begin, end] =
                tokens.strings[rng.uniformInt(tokens.strings.size())];
            bytes.erase(end - 1, 1);
            bytes.erase(begin, 1);
        } else {
            const auto [begin, end] =
                tokens.numbers[rng.uniformInt(tokens.numbers.size())];
            switch (rng.uniformInt(3)) {
              case 0:  // a number becomes a string
                bytes.insert(end, 1, '"');
                bytes.insert(begin, 1, '"');
                break;
              case 1:  // a count turns negative
                bytes.insert(begin, 1, '-');
                break;
              default:  // an integer gains a fraction
                bytes.insert(end, ".5");
                break;
            }
        }
        loaded += tryMutant(bytes, valid.keys,
                            "retyped value, round " + std::to_string(k));
    }
    EXPECT_GT(loaded, 0u);
}
