/**
 * @file
 * Deterministic mutation fuzzing of the `key=value` readers.  The seeds
 * are spec strings and command lines the repository's tests and
 * perfbench pass.  Each has bits flipped, bytes inserted and deleted, is
 * truncated at every length, has a ':', ',', '=' or ' ' doubled or
 * dropped, and has a key repeated.  Every spec-string mutant goes
 * through Spec::parse, the workload and link-power registries'
 * validate(), validateWorkloadSpec, validateLinkPowerSpec,
 * validateSearchSpec and applySearchSpec; every command-line mutant
 * (split at spaces into argv) through Spec::fromArgs and the bench
 * option readers (bench::parseOptions, the accepted keys, paperSpec,
 * searchConfigFromOptions).  Each key of a mutant that parses is read
 * with every typed getter.  Each step must yield a value or raise
 * ConfigError: never crash, exit the process or trip a sanitizer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"
#include "power/link_power.hpp"
#include "search/driver.hpp"
#include "search_cli.hpp"
#include "workload/factory.hpp"

using dvsnet::ConfigError;
using dvsnet::Rng;
using dvsnet::Spec;

namespace
{

/** Spec strings from the tests, the ctests and perfbench. */
const std::vector<std::string> kSpecSeeds = {
    "successive-halving:candidates=4,rungs=2,slack=1",
    "successive-halving:candidates=4,rungs=2,slack=0.08",
    "successive-halving:candidates=32,rungs=4,step=3,slack=0.1",
    "successive-halving:rungs=100000000",
    "two-level:tasks=5,tasks=abc",
    "two-level:tasks=3,p_local=0.5,locality_radius=2,per_packet_dest=yes",
    "cmp:window=4,reply_flits=5,home_latency=20",
    "cmp:window=8,hot_nodes=4,p_hot=0.3",
    "toggle:idle=0.25,width=16",
    "toggle:idle=nan",
    "trace:path=smoke.trace.dvst",
    "uniform",
    "table",
};

/** Command lines (argv joined with spaces) from the ctests and
 *  perfbench. */
const std::vector<std::string> kCommandLineSeeds = {
    "perfbench warmup=10000 cycles=5000 seed=1 points=8",
    "perfbench warmup=4000 cycles=3000 seed=1 points=3 tasks=12 sources=16 "
    "search=successive-halving:candidates=4,rungs=2,slack=1",
    "bench_pareto_search --quick --json smoke.json "
    "search=successive-halving:candidates=4,rungs=2,slack=0.08 "
    "warmup=120000 cycles=20000",
    "pareto_search --quick search=successive-halving:candidates=4,rungs=2 "
    "--seed 2003 journal=smoke.jsonl --json smoke.json",
    "bench_fig10_dvs_100tasks --quick rate_lo=2 rate_hi=1 --threads=2",
    "bench_fig10_dvs_100tasks --quick --workload two-level:tasks=5,tasks=abc",
    "bench_fig13_threshold_latency --quick "
    "--link-power toggle:idle=0.25,width=16 csv=yes",
    "bench_micro --quick --net-filter twolevel --json twolevel.json",
    "quickstart rate=0x1p-1 cycles=1000",
    "record out=smoke.trace.csv workload=uniform radix=4 cycles=2000 "
    "rate=0.5 seed=7",
};

/** Run `read`, counting a value; a ConfigError is the other allowed
 *  outcome. */
template <typename Read>
void
attempt(std::size_t &values, Read read)
{
    try {
        read();
        ++values;
    } catch (const ConfigError &) {
    }
}

/** Read every key of `spec` with every typed getter. */
void
readEveryKey(const Spec &spec, std::size_t &values)
{
    for (const auto &param : spec.params) {
        const std::string &key = param.first;
        attempt(values, [&] { (void)spec.text(key, ""); });
        attempt(values, [&] { (void)spec.number(key, 0.0); });
        attempt(values, [&] { (void)spec.number(key, 0.5, 0.0, 1.0); });
        attempt(values, [&] { (void)spec.integer<std::int8_t>(key, 0); });
        attempt(values, [&] { (void)spec.integer<std::uint16_t>(key, 0); });
        attempt(values,
                [&] { (void)spec.integer<std::int32_t>(key, 0, -5, 5); });
        attempt(values, [&] { (void)spec.integer<std::int64_t>(key, 0); });
        attempt(values, [&] { (void)spec.count(key, 0); });
        attempt(values, [&] { (void)spec.count(key, 1, 1, 64); });
        attempt(values, [&] { (void)spec.countEnv(key, 0); });
        attempt(values, [&] { (void)spec.boolean(key, false); });
    }
    attempt(values, [&] { spec.rejectUnknownKeys({"tasks", "rate"}); });
}

/** Every reader a spec string meets.  Returns whether it parsed. */
bool
readSpecString(const std::string &text, std::size_t &values)
{
    // The validators report problems; they never throw.
    (void)dvsnet::workload::validateWorkloadSpec(text);
    (void)dvsnet::power::validateLinkPowerSpec(text);
    (void)dvsnet::search::validateSearchSpec(text);
    Spec spec;
    try {
        spec = Spec::parse(text);
    } catch (const ConfigError &) {
        return false;
    }
    (void)dvsnet::workload::workloadRegistry().validate(spec);
    (void)dvsnet::power::linkPowerRegistry().validate(spec);
    attempt(values, [&] {
        dvsnet::search::SearchConfig config;
        dvsnet::search::applySearchSpec(config, spec);
    });
    readEveryKey(spec, values);
    return true;
}

/** Every reader a command line meets.  Returns whether the bench
 *  option readers accepted it. */
bool
readCommandLine(const std::string &line, std::size_t &values)
{
    std::vector<std::string> tokens(1);
    for (const char c : line) {
        if (c == ' ')
            tokens.emplace_back();
        else
            tokens.back() += c;
    }
    std::vector<char *> argv;
    for (auto &token : tokens)
        argv.push_back(token.data());
    const int argc = static_cast<int>(argv.size());

    try {
        readEveryKey(Spec::fromArgs(argc, argv.data()), values);
    } catch (const ConfigError &) {
    }
    try {
        const auto opts = dvsnet::bench::parseOptions(argc, argv.data());
        dvsnet::bench::rejectUnknownSearchKeys(opts);
        (void)dvsnet::bench::paperSpec(opts);
        (void)dvsnet::bench::searchConfigFromOptions(opts);
    } catch (const ConfigError &) {
        return false;
    }
    return true;
}

/** Positions of the bytes of `text` that are one of `chars`. */
std::vector<std::size_t>
positionsOf(const std::string &text, const std::string &chars)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (chars.find(text[i]) != std::string::npos)
            out.push_back(i);
    }
    return out;
}

/**
 * The mutants of `seed`: every truncation, then `rounds` each of bit
 * flips, byte inserts, byte deletes, a doubled or dropped separator and
 * a repeated item.  `separators` are the grammar's (":,=" for a spec
 * string; a command line adds ' ', which splits argv); items are split
 * at `itemBreak`.
 */
std::vector<std::string>
mutants(const std::string &seed, const std::string &separators,
        char itemBreak, Rng &rng, int rounds)
{
    std::vector<std::string> out;
    for (std::size_t n = 0; n < seed.size(); ++n)
        out.push_back(seed.substr(0, n));

    const std::string structural = ":,=- +.0x9e";
    for (int k = 0; k < rounds; ++k) {
        std::string flipped = seed;
        for (std::uint64_t n = 1 + rng.uniformInt(3); n > 0; --n) {
            flipped[rng.uniformInt(flipped.size())] ^=
                static_cast<char>(1u << rng.uniformInt(8));
        }
        out.push_back(flipped);

        std::string inserted = seed;
        const char byte =
            rng.uniformInt(2) == 0
                ? static_cast<char>(rng.uniformInt(256))
                : structural[rng.uniformInt(structural.size())];
        inserted.insert(rng.uniformInt(seed.size() + 1), 1, byte);
        out.push_back(inserted);

        std::string deleted = seed;
        deleted.erase(rng.uniformInt(seed.size()), 1 + rng.uniformInt(4));
        out.push_back(deleted);

        const auto seps = positionsOf(seed, separators);
        if (!seps.empty()) {
            const std::size_t at = seps[rng.uniformInt(seps.size())];
            std::string doubled = seed;
            doubled.insert(at, 1, seed[at]);
            out.push_back(doubled);
            std::string dropped = seed;
            dropped.erase(at, 1);
            out.push_back(dropped);
        }

        // Repeat one item (a key=value item or an argv token) after
        // another, so its key appears twice.
        const auto breaks = positionsOf(seed, std::string(1, itemBreak));
        if (!breaks.empty()) {
            const std::size_t from = breaks[rng.uniformInt(breaks.size())];
            std::size_t to = seed.find(itemBreak, from + 1);
            if (to == std::string::npos)
                to = seed.size();
            std::string repeated = seed;
            repeated.insert(rng.uniformInt(2) == 0 ? to : seed.size(),
                            seed.substr(from, to - from));
            out.push_back(repeated);
        }
    }
    return out;
}

} // namespace

TEST(SpecFuzz, SeedsAreAccepted)
{
    std::size_t values = 0;
    for (const auto &seed : kSpecSeeds) {
        // Every seed parses but the one that repeats a key.
        EXPECT_EQ(readSpecString(seed, values),
                  seed != "two-level:tasks=5,tasks=abc")
            << seed;
    }
    for (const auto &seed : kCommandLineSeeds) {
        if (seed.rfind("perfbench ", 0) == 0 ||
            seed.rfind("bench_pareto_search ", 0) == 0 ||
            seed.rfind("pareto_search ", 0) == 0)
            EXPECT_TRUE(readCommandLine(seed, values)) << seed;
        else
            readCommandLine(seed, values);
    }
    EXPECT_GT(values, 0u);
}

TEST(SpecFuzz, SpecStringMutantsReadOrRaiseConfigError)
{
    Rng rng(2901);
    std::size_t parsed = 0;
    std::size_t refused = 0;
    std::size_t values = 0;
    for (const auto &seed : kSpecSeeds) {
        for (const auto &text : mutants(seed, ":,=", ',', rng, 60)) {
            if (readSpecString(text, values))
                ++parsed;
            else
                ++refused;
        }
    }
    // Both outcomes occur, and parsed mutants yield typed values.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(refused, 500u);
    EXPECT_GT(values, 10000u);
}

TEST(SpecFuzz, CommandLineMutantsReadOrRaiseConfigError)
{
    Rng rng(2902);
    std::size_t accepted = 0;
    std::size_t refused = 0;
    std::size_t values = 0;
    for (const auto &seed : kCommandLineSeeds) {
        for (const auto &line : mutants(seed, " =:,", ' ', rng, 40)) {
            if (readCommandLine(line, values))
                ++accepted;
            else
                ++refused;
        }
    }
    EXPECT_GT(accepted, 200u);
    EXPECT_GT(refused, 1000u);
    EXPECT_GT(values, 10000u);
}
