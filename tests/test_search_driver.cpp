/**
 * @file
 * SearchDriver tests: the resumable, cached successive-halving search.
 *
 * The load-bearing contracts, each pinned here:
 *  - same seed => bit-identical Pareto front and journal bytes;
 *  - a budget-stopped ("killed") run resumed from its own journal
 *    reproduces the cold run's front and journal byte-for-byte;
 *  - a warm-cache second run performs ZERO network evaluations
 *    (asserted through the CounterRegistry) yet returns the same front;
 *  - on a closed-form synthetic objective whose rung error respects the
 *    declared slack, successive halving never discards a true
 *    full-fidelity Pareto point (checked against brute force);
 *  - equal objective vectors never cull each other, and a record whose
 *    window delivered no packet (latency 0 of no samples) neither culls
 *    nor joins the front;
 *  - every candidate at every rung replays one recorded traffic stream
 *    (common random numbers), and the evaluation key still tells
 *    candidates apart: it changes with every config field;
 *  - a rung runs a kept network on from the last rung when its runs
 *    continue that rung's, for at most 2 x workers candidates a rung,
 *    and every record still equals a run from cycle 0;
 *  - a journal of another schema, or records before any header, are
 *    refused with a ConfigError;
 *  - a record with a mis-typed field, a negative count or a parameter
 *    echo that is no Candidate ends the load like a torn tail, instead
 *    of aborting there or later in the front table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "counting_workload.hpp"
#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "search/driver.hpp"

using dvsnet::ConfigError;
using dvsnet::CounterRegistry;
using dvsnet::Cycle;
using dvsnet::Spec;
using dvsnet::splitmix64;
using dvsnet::exp::pointSeed;
using dvsnet::exp::runPoint;
using dvsnet::network::ExperimentSpec;
using dvsnet::network::PolicyKind;
using dvsnet::network::RunResults;
using dvsnet::search::applySearchSpec;
using dvsnet::search::Candidate;
using dvsnet::search::canonicalJson;
using dvsnet::search::ParetoFront;
using dvsnet::search::RungSpec;
using dvsnet::search::SearchConfig;
using dvsnet::search::SearchDriver;
using dvsnet::search::SearchOutcome;
using dvsnet::search::validateSearchSpec;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Closed-form objectives: higher TL_low trades latency for power. */
void
synthFullObjectives(const Candidate &c, double &latency, double &power)
{
    latency = 150.0 + 200.0 * c.tlLow + 40.0 * (c.tlHigh - c.tlLow) +
              0.05 * static_cast<double>(c.freqLockCycles) +
              5.0 * static_cast<double>(c.cooldown) - 2.0 * c.weight;
    power = 2.0 - 1.8 * c.tlLow + 0.04 * c.weight +
            0.3 * (c.tlHigh - c.tlLow);
}

constexpr double kSynthLatencyAmp = 5.0;
constexpr double kSynthPowerAmp = 0.05;

/**
 * Synthetic evaluator: the closed form plus a fidelity error that
 * shrinks linearly to zero at the full measurement window and never
 * exceeds the amplitude — so rungs declaring the amplitudes as absolute
 * slack satisfy the promotion rule exactly.  The error is drawn from the
 * seed and the candidate's parameters: every candidate shares one seed
 * (common random numbers), so the candidate-specific part is the error
 * the slack has to cover.
 */
SearchDriver::Evaluator
synthEvaluator(Cycle fullMeasure)
{
    return [fullMeasure](const ExperimentSpec &spec, double,
                         std::uint64_t seed) {
        Candidate c;
        c.tlLow = spec.network.policyParams.tlLow;
        c.tlHigh = spec.network.policyParams.tlHigh;
        c.weight = spec.network.policyParams.weight;
        c.cooldown = spec.network.policyCooldown;
        c.freqLockCycles = spec.network.link.freqTransitionLinkCycles;

        double latency = 0.0, power = 0.0;
        synthFullObjectives(c, latency, power);

        const double frac =
            1.0 - static_cast<double>(spec.measure) /
                      static_cast<double>(fullMeasure);
        std::uint64_t state =
            pointSeed(seed, canonicalJson(c.toJson()).dump());
        const double u1 =
            static_cast<double>(splitmix64(state) >> 11) / 9007199254740992.0;
        const double u2 =
            static_cast<double>(splitmix64(state) >> 11) / 9007199254740992.0;
        latency += kSynthLatencyAmp * frac * (2.0 * u1 - 1.0);
        power += kSynthPowerAmp * frac * (2.0 * u2 - 1.0);

        RunResults r;
        r.measuredCycles = spec.measure;
        r.packetsDelivered = 1000;
        r.avgLatencyCycles = latency;
        r.avgPowerW = power;
        r.totalEnergyJ =
            power * static_cast<double>(spec.measure) * 1e-9;
        return r;
    };
}

/** Synthetic-objective search over a sampled candidate cloud. */
SearchConfig
synthConfig(std::uint64_t seed)
{
    SearchConfig config;
    config.base.network.radix = 4;
    config.base.warmup = 1000;
    config.base.measure = 50000;
    config.seed = seed;
    config.randomCandidates = 24;

    for (Cycle measure : {Cycle{5000}, Cycle{20000}, Cycle{50000}}) {
        RungSpec rung;
        rung.warmup = 1000;
        rung.measure = measure;
        rung.slackLatency = kSynthLatencyAmp;
        rung.slackPower = kSynthPowerAmp;
        config.rungs.push_back(rung);
    }
    return config;
}

SearchOutcome
runSynth(SearchConfig config, CounterRegistry *registry = nullptr)
{
    SearchDriver driver(std::move(config), registry);
    driver.setEvaluator(synthEvaluator(driver.config().base.measure));
    return driver.run();
}

/** Real-network search small enough for the test suite. */
SearchConfig
realConfig()
{
    SearchConfig config;
    config.base.network.radix = 4;
    config.base.workload.avgConcurrentTasks = 10;
    config.base.workload.meanTaskDurationCycles = 2e4;
    config.base.workload.sourcesPerTask = 16;
    config.base.warmup = 1000;
    config.base.measure = 3000;
    config.injectionRate = 0.4;
    config.randomCandidates = 0;
    config.threads = 1;

    Candidate a;  // paper default thresholds
    Candidate b;
    b.tlLow = 0.15;
    b.tlHigh = 0.25;
    Candidate c;
    c.tlLow = 0.45;
    c.tlHigh = 0.6;
    c.cooldown = 2;
    config.seeded = {a, b, c};

    RungSpec quick;
    quick.warmup = 500;
    quick.measure = 1000;
    RungSpec full;
    full.warmup = 1000;
    full.measure = 3000;
    config.rungs = {quick, full};
    return config;
}

/**
 * realConfig() on a ladder whose rungs continue each other's runs
 * (equal warm-up, growing measurement), as applySearchSpec builds, with
 * ramps short enough that the thresholds act inside these windows.
 */
SearchConfig
prefixConfig()
{
    SearchConfig config = realConfig();
    config.base.network.link.voltageTransitionLatency =
        dvsnet::cyclesToTicks(50);
    config.randomCandidates = 4;
    config.rungs.clear();
    for (const Cycle measure : {Cycle{1000}, Cycle{2000}, Cycle{3000}}) {
        RungSpec rung;
        rung.warmup = 1000;
        rung.measure = measure;
        config.rungs.push_back(rung);
    }
    return config;
}

std::string
resultsJson(const RunResults &results)
{
    return canonicalJson(dvsnet::network::toJson(results)).dump();
}

std::vector<std::vector<double>>
frontObjectives(const ParetoFront &front)
{
    std::vector<std::vector<double>> out;
    for (const auto &p : front.points())
        out.push_back(p.objectives);
    return out;
}

} // namespace

TEST(SearchSpec, GrammarRoundTrip)
{
    // The grammar is shared (tests/test_spec.cpp); this pins the search=
    // string the CLI documents, and that validateSearchSpec reports a
    // malformed one as a problem rather than throwing.
    const auto spec = Spec::parse(
        "successive-halving:candidates=32,rungs=4,step=3,slack=0.1");
    EXPECT_EQ(spec.name, "successive-halving");
    ASSERT_EQ(spec.params.size(), 4u);
    EXPECT_EQ(*spec.find("candidates"), "32");
    EXPECT_EQ(spec.find("missing"), nullptr);
    EXPECT_EQ(spec.toString(),
              "successive-halving:candidates=32,rungs=4,step=3,slack=0.1");
    EXPECT_TRUE(validateSearchSpec(spec.toString()).empty());

    for (const char *text :
         {"", "successive-halving:oops", "successive-halving:=3"}) {
        EXPECT_THROW(Spec::parse(text), ConfigError) << "'" << text << "'";
        EXPECT_FALSE(validateSearchSpec(text).empty())
            << "'" << text << "'";
    }
}

TEST(SearchSpec, ValidateRejectsUnknownNamesAndKeys)
{
    EXPECT_TRUE(validateSearchSpec("successive-halving").empty());
    EXPECT_TRUE(
        validateSearchSpec("successive-halving:budget=100").empty());

    const auto unknownName = validateSearchSpec("grid");
    ASSERT_EQ(unknownName.size(), 1u);
    EXPECT_NE(unknownName[0].find("unknown search strategy 'grid'"),
              std::string::npos);
    EXPECT_NE(unknownName[0].find("successive-halving"),
              std::string::npos);

    const auto unknownKey =
        validateSearchSpec("successive-halving:bogus=1");
    ASSERT_EQ(unknownKey.size(), 1u);
    EXPECT_NE(unknownKey[0].find("unknown key 'bogus'"),
              std::string::npos);
    EXPECT_NE(unknownKey[0].find("candidates"), std::string::npos);
}

TEST(SearchSpec, ApplyBuildsGeometricLadder)
{
    SearchConfig config;
    config.base.warmup = 20000;
    config.base.measure = 150000;

    applySearchSpec(config, Spec::parse(
        "successive-halving:candidates=12,rungs=3,step=5,slack=0.2,"
        "budget=40"));
    EXPECT_EQ(config.randomCandidates, 12u);
    EXPECT_EQ(config.maxNetworkEvals, 40u);
    ASSERT_EQ(config.rungs.size(), 3u);
    EXPECT_EQ(config.rungs[0].measure, Cycle{6000});   // 150000 / 25
    EXPECT_EQ(config.rungs[1].measure, Cycle{30000});  // 150000 / 5
    EXPECT_EQ(config.rungs[2].measure, Cycle{150000});
    // Warm-up is never truncated: it absorbs the DVS transient, so a
    // shorter warm-up would measure a different steady state.
    EXPECT_EQ(config.rungs[0].warmup, Cycle{20000});
    EXPECT_EQ(config.rungs[1].warmup, Cycle{20000});
    EXPECT_EQ(config.rungs[2].warmup, Cycle{20000});
    EXPECT_DOUBLE_EQ(config.rungs[1].slackFraction, 0.2);

    EXPECT_THROW(applySearchSpec(
                     config, Spec::parse("successive-halving:step=0.5")),
                 ConfigError);
    EXPECT_THROW(applySearchSpec(
                     config, Spec::parse("successive-halving:rungs=0")),
                 ConfigError);
    EXPECT_THROW(applySearchSpec(config, Spec::parse("grid")),
                 ConfigError);
    // Negative counts are rejected, not wrapped to 2^64 - 1.
    EXPECT_THROW(applySearchSpec(config, Spec::parse("successive-halving:"
                                                     "candidates=-1")),
                 ConfigError);
    EXPECT_THROW(applySearchSpec(
                     config, Spec::parse("successive-halving:budget=-1")),
                 ConfigError);
    EXPECT_THROW(applySearchSpec(
                     config, Spec::parse("successive-halving:rungs=-1")),
                 ConfigError);
    // Huge counts are refused before the ladder or the candidate set
    // is built in memory.
    EXPECT_THROW(applySearchSpec(config,
                                 Spec::parse("successive-halving:"
                                             "rungs=100000000")),
                 ConfigError);
    EXPECT_THROW(applySearchSpec(config,
                                 Spec::parse("successive-halving:"
                                             "candidates=1000000000")),
                 ConfigError);
}

TEST(SearchConfigTest, ValidateCatchesNonsense)
{
    SearchConfig config = synthConfig(1);
    config.rungs.clear();
    config.randomCandidates = 0;
    config.injectionRate = -1.0;
    const auto problems = config.validate();
    EXPECT_GE(problems.size(), 3u);
    EXPECT_THROW(SearchDriver{config}, ConfigError);
}

TEST(SearchConfigTest, ValidateCapsRungsAndCandidates)
{
    // A config built in code meets the same caps as a search= spec.
    SearchConfig config = synthConfig(1);
    ASSERT_TRUE(config.validate().empty());
    config.rungs.assign(65, config.rungs.back());
    config.randomCandidates = 1000001;
    const auto problems = config.validate();
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("cap of 1000000"), std::string::npos)
        << problems[0];
    EXPECT_NE(problems[1].find("cap of 64"), std::string::npos)
        << problems[1];
    EXPECT_THROW(SearchDriver{config}, ConfigError);

    config.rungs.resize(64);
    config.randomCandidates = 1000000;
    EXPECT_TRUE(config.validate().empty());
}

TEST(SearchConfigTest, ValidateCapsThreads)
{
    // Each thread is a worker the runner's pool starts: a config past
    // the cap is refused before any pool is built.
    SearchConfig config = synthConfig(1);
    config.threads = dvsnet::exp::kMaxThreads;
    ASSERT_TRUE(config.validate().empty());
    config.threads = dvsnet::exp::kMaxThreads + 1;
    const auto problems = config.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("threads 1025 exceed the cap of 1024"),
              std::string::npos)
        << problems[0];
    EXPECT_THROW(SearchDriver{config}, ConfigError);
}

TEST(SearchConfigTest, ValidateCapsTheRateAtOnePacketPerNodePerCycle)
{
    SearchConfig config = synthConfig(1);
    config.injectionRate =
        dvsnet::network::maxInjectionRate(config.base.network);
    ASSERT_TRUE(config.validate().empty());
    config.injectionRate = std::nextafter(config.injectionRate, 1e9);
    const auto problems = config.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("one packet per node per cycle"),
              std::string::npos)
        << problems[0];
}

TEST(SearchDriverTest, CandidateSetDeterministicAndDeduped)
{
    SearchConfig config = synthConfig(7);
    Candidate dup;  // defaults, listed twice: must collapse to one
    config.seeded = {dup, dup};

    const auto first = SearchDriver::candidateSet(config);
    const auto second = SearchDriver::candidateSet(config);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first.size(), 1 + config.randomCandidates);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(canonicalJson(first[i].toJson()).dump(),
                  canonicalJson(second[i].toJson()).dump());
        EXPECT_LT(first[i].tlLow, first[i].tlHigh);
    }
}

TEST(SearchDriverTest, SameSeedBitIdenticalFrontAndJournal)
{
    SearchConfig config = synthConfig(42);
    config.journalPath = tmpPath("search_journal_a.jsonl");
    const SearchOutcome a = runSynth(config);

    config.journalPath = tmpPath("search_journal_b.jsonl");
    const SearchOutcome b = runSynth(config);

    EXPECT_TRUE(a.completed);
    EXPECT_TRUE(b.completed);
    EXPECT_FALSE(a.front.empty());
    EXPECT_EQ(a.front.toJson().dump(), b.front.toJson().dump());
    ASSERT_EQ(a.journal.size(), b.journal.size());
    EXPECT_EQ(fileBytes(tmpPath("search_journal_a.jsonl")),
              fileBytes(tmpPath("search_journal_b.jsonl")));
}

TEST(SearchDriverTest, NeverDiscardsTrueParetoPoint)
{
    bool sawCulling = false;
    for (std::uint64_t seed : {11ull, 23ull, 99ull, 1234ull}) {
        const SearchConfig config = synthConfig(seed);
        const SearchOutcome outcome = runSynth(config);
        ASSERT_TRUE(outcome.completed);
        sawCulling = sawCulling || outcome.culled > 0;

        // Brute force: the true front of every candidate's closed-form
        // full-fidelity objectives (zero fidelity error at the last
        // rung, so searched values match the closed form exactly).
        ParetoFront truth(2);
        for (std::size_t i = 0; i < outcome.candidates.size(); ++i) {
            double latency = 0.0, power = 0.0;
            synthFullObjectives(outcome.candidates[i], latency, power);
            truth.insert({{latency, power}, std::to_string(i), {}});
        }
        EXPECT_EQ(frontObjectives(outcome.front), frontObjectives(truth))
            << "seed " << seed;
    }
    // The property must not hold vacuously: at least one run has to
    // have actually terminated candidates early.
    EXPECT_TRUE(sawCulling);
}

TEST(SearchDriverTest, SuccessiveHalvingSavesFullEvaluations)
{
    const SearchOutcome outcome = runSynth(synthConfig(42));
    ASSERT_TRUE(outcome.completed);
    EXPECT_GT(outcome.culled, 0u);
    EXPECT_LT(outcome.networkEvalsFull, outcome.candidates.size());
    EXPECT_EQ(outcome.finalSurvivors.size() + outcome.culled,
              outcome.candidates.size());
}

TEST(SearchDriverTest, KilledRunResumesToIdenticalFrontAndJournal)
{
    // Cold reference: unlimited budget.
    SearchConfig config = synthConfig(777);
    config.journalPath = tmpPath("search_cold.jsonl");
    const SearchOutcome cold = runSynth(config);
    ASSERT_TRUE(cold.completed);

    // "Kill" after the first rung: budget == candidate count, so rung 0
    // exactly exhausts it and rung 1 stops at the boundary.
    const std::size_t count = SearchDriver::candidateSet(config).size();
    config.journalPath = tmpPath("search_killed.jsonl");
    config.maxNetworkEvals = count;
    const SearchOutcome killed = runSynth(config);
    EXPECT_FALSE(killed.completed);
    EXPECT_EQ(killed.networkEvals, count);
    EXPECT_LT(killed.journal.size(), cold.journal.size());
    EXPECT_TRUE(killed.front.empty());

    // Resume from the killed journal, rewriting it in place — the
    // classic `--resume <journal>` flow.
    config.maxNetworkEvals = 0;
    config.warmJournals = {config.journalPath};
    CounterRegistry registry;
    const SearchOutcome resumed = runSynth(config, &registry);
    ASSERT_TRUE(resumed.completed);
    EXPECT_GT(registry.counterValue("search.cache_hits"), 0u);
    EXPECT_LT(resumed.networkEvals, cold.networkEvals);
    EXPECT_EQ(resumed.front.toJson().dump(), cold.front.toJson().dump());
    EXPECT_EQ(fileBytes(tmpPath("search_killed.jsonl")),
              fileBytes(tmpPath("search_cold.jsonl")));
}

TEST(SearchDriverTest, TornJournalTailIsDiscardedOnResume)
{
    SearchConfig config = synthConfig(5);
    config.journalPath = tmpPath("search_torn.jsonl");
    const SearchOutcome cold = runSynth(config);
    ASSERT_TRUE(cold.completed);

    // Chop the last record in half — what a SIGKILL mid-write leaves.
    const std::string bytes = fileBytes(config.journalPath);
    std::ofstream out(config.journalPath,
                      std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 40);
    out.close();

    config.warmJournals = {config.journalPath};
    const SearchOutcome resumed = runSynth(config);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.front.toJson().dump(), cold.front.toJson().dump());
    EXPECT_EQ(fileBytes(config.journalPath), bytes);
}

TEST(SearchDriverTest, WarmCacheSecondRunDoesZeroNetworkEvals)
{
    // Real network end-to-end: small mesh, tiny windows, two rungs.
    SearchConfig config = realConfig();
    config.journalPath = tmpPath("search_real.jsonl");

    CounterRegistry coldCounters;
    SearchDriver cold(config, &coldCounters);
    const SearchOutcome first = cold.run();
    ASSERT_TRUE(first.completed);
    EXPECT_FALSE(first.front.empty());
    EXPECT_GT(coldCounters.counterValue("search.network_evals"), 0u);
    const std::string coldBytes = fileBytes(config.journalPath);

    config.warmJournals = {config.journalPath};
    CounterRegistry warmCounters;
    SearchDriver warm(config, &warmCounters);
    const SearchOutcome second = warm.run();
    ASSERT_TRUE(second.completed);

    // The satellite contract: a warmed re-run simulates NOTHING.
    EXPECT_EQ(warmCounters.counterValue("search.network_evals"), 0u);
    EXPECT_EQ(warmCounters.counterValue("search.cache_hits"),
              first.journal.size());
    EXPECT_EQ(second.front.toJson().dump(), first.front.toJson().dump());
    EXPECT_EQ(fileBytes(config.journalPath), coldBytes);
}

TEST(SearchDriverTest, EvaluateFullMatchesSearchLastRung)
{
    SearchConfig config = synthConfig(42);
    CounterRegistry registry;
    SearchDriver driver(config, &registry);
    driver.setEvaluator(synthEvaluator(config.base.measure));
    const SearchOutcome outcome = driver.run();
    ASSERT_TRUE(outcome.completed);
    ASSERT_FALSE(outcome.finalSurvivors.empty());

    // A survivor's full evaluation is already cached: same key, same
    // bits, zero extra network evaluations.
    const std::uint64_t evalsBefore =
        registry.counterValue("search.network_evals");
    const auto rec = driver.evaluateFull(
        outcome.candidates[outcome.finalSurvivors.front()]);
    EXPECT_EQ(registry.counterValue("search.network_evals"), evalsBefore);
    EXPECT_TRUE(outcome.front.covers(rec.objectives()));

    // A config the search culled early still evaluates deterministically
    // through the same derivation (twice -> one miss, then one hit).
    Candidate fresh;
    fresh.tlLow = 0.111;
    fresh.tlHigh = 0.222;
    fresh.weight = 1.5;
    const auto miss = driver.evaluateFull(fresh);
    const auto hit = driver.evaluateFull(fresh);
    EXPECT_EQ(registry.counterValue("search.network_evals"),
              evalsBefore + 1);
    EXPECT_EQ(miss.key, hit.key);
    EXPECT_EQ(miss.results.avgLatencyCycles,
              hit.results.avgLatencyCycles);

    // Real networks on a ladder whose rungs continue each other: some
    // survivors' last-rung records ran on from earlier rungs, and
    // evaluateFull serves every survivor from the cache.  A driver with
    // no cache runs each from cycle 0 and gets the same bits.
    SearchConfig prefix = prefixConfig();
    prefix.threads = 2;
    CounterRegistry prefixRegistry;
    SearchDriver prefixDriver(prefix, &prefixRegistry);
    const SearchOutcome ranOn = prefixDriver.run();
    ASSERT_TRUE(ranOn.completed);
    ASSERT_GT(ranOn.continued, 0u);
    ASSERT_FALSE(ranOn.finalSurvivors.empty());

    SearchDriver cold(prefix);
    for (const std::size_t idx : ranOn.finalSurvivors) {
        const Candidate &c = ranOn.candidates[idx];
        const std::uint64_t before =
            prefixRegistry.counterValue("search.network_evals");
        const auto served = prefixDriver.evaluateFull(c);
        EXPECT_EQ(prefixRegistry.counterValue("search.network_evals"),
                  before);
        EXPECT_TRUE(ranOn.front.covers(served.objectives()));
        const auto fromZero = cold.evaluateFull(c);
        EXPECT_EQ(served.key, fromZero.key);
        EXPECT_EQ(resultsJson(served.results),
                  resultsJson(fromZero.results))
            << "candidate " << idx;
    }
}

TEST(SearchDriverTest, EveryRecordEqualsARunFromCycleZero)
{
    // Whether a rung ran a candidate on from the last rung or from
    // cycle 0, its record is exp::runPoint's for that rung's spec, bit
    // for bit, and the journal is the same at every worker count: on a
    // ladder whose rungs continue each other, and on realConfig()'s,
    // whose warm-ups differ, so nothing continues.
    for (const SearchConfig &base : {prefixConfig(), realConfig()}) {
        std::vector<std::string> firstJournal;
        for (const std::size_t threads : {1u, 3u}) {
            SearchConfig config = base;
            config.threads = threads;
            SearchDriver driver(config);
            const SearchOutcome outcome = driver.run();
            ASSERT_TRUE(outcome.completed);
            EXPECT_EQ(outcome.continued > 0, base.rungs.size() == 3);

            std::vector<std::string> journal;
            for (const auto &rec : outcome.journal) {
                const Candidate c = Candidate::fromJson(rec.params);
                const RunResults expected =
                    runPoint(driver.specFor(c, config.rungs.at(rec.rung)),
                             rec.rate, rec.seed);
                EXPECT_EQ(resultsJson(rec.results), resultsJson(expected))
                    << "threads " << threads << ", rung " << rec.rung
                    << ", candidate " << canonicalJson(rec.params).dump();
                journal.push_back(rec.key + resultsJson(rec.results));
            }
            if (firstJournal.empty())
                firstJournal = journal;
            EXPECT_EQ(journal, firstJournal) << "threads " << threads;
        }
    }
}

TEST(SearchDriverTest, ContinuedRunsAreBoundedByTwiceTheWorkers)
{
    // With no culls, each rung after the first runs on the networks of
    // the last 2 x workers candidates of the rung before: min(7, 2T)
    // of the 7 candidates a rung.  realConfig()'s rungs differ in
    // warm-up, so none of its runs continue.
    for (const std::size_t threads : {1u, 3u}) {
        SearchConfig config = prefixConfig();
        config.threads = threads;
        for (auto &rung : config.rungs)
            rung.slackFraction = 1.0;  // a cull needs twice the spread
        CounterRegistry registry;
        SearchDriver driver(config, &registry);
        const SearchOutcome outcome = driver.run();
        ASSERT_TRUE(outcome.completed);
        ASSERT_EQ(outcome.culled, 0u);
        ASSERT_EQ(outcome.candidates.size(), 7u);

        const std::uint64_t perRung = std::min<std::uint64_t>(7, 2 * threads);
        EXPECT_EQ(outcome.continued, perRung * (config.rungs.size() - 1))
            << "threads " << threads;
        EXPECT_EQ(registry.counterValue("search.continued"),
                  outcome.continued);
        EXPECT_EQ(outcome.networkEvals,
                  outcome.candidates.size() * config.rungs.size());
    }

    SearchConfig config = realConfig();
    config.threads = 3;
    const SearchOutcome outcome = SearchDriver(config).run();
    ASSERT_TRUE(outcome.completed);
    EXPECT_GT(outcome.networkEvals, 0u);
    EXPECT_EQ(outcome.continued, 0u);
}

TEST(SearchDriverTest, EqualObjectivesNeverCullEachOther)
{
    // Under common random numbers candidates often tie exactly.  A tie
    // is no evidence either way, so it must never cull — at zero slack
    // (explicit, or derived from a zero spread) as at any other.
    for (const double fraction : {0.0, 1.0}) {
        SearchConfig config = synthConfig(42);
        for (auto &rung : config.rungs) {
            rung.slackLatency = 0.0;
            rung.slackPower = 0.0;
            rung.slackFraction = fraction;
        }
        SearchDriver driver(config);
        driver.setEvaluator(
            [](const ExperimentSpec &spec, double, std::uint64_t) {
                RunResults r;
                r.measuredCycles = spec.measure;
                r.packetsDelivered = 1000;
                r.avgLatencyCycles = 100.0;
                r.avgPowerW = 1.0;
                return r;
            });
        const SearchOutcome outcome = driver.run();
        ASSERT_TRUE(outcome.completed);
        EXPECT_EQ(outcome.culled, 0u) << "slack fraction " << fraction;
        EXPECT_EQ(outcome.finalSurvivors.size(), outcome.candidates.size())
            << "slack fraction " << fraction;
    }

    // Tied candidates still fall to one that beats them: at zero slack
    // every candidate but the better one is culled after rung 0.
    SearchConfig config = synthConfig(42);
    for (auto &rung : config.rungs) {
        rung.slackLatency = 0.0;
        rung.slackPower = 0.0;
        rung.slackFraction = 0.0;
    }
    const Candidate best = SearchDriver::candidateSet(config).at(3);
    SearchDriver driver(config);
    driver.setEvaluator(
        [best](const ExperimentSpec &spec, double, std::uint64_t) {
            const bool isBest =
                spec.network.policyParams.tlLow == best.tlLow &&
                spec.network.policyParams.tlHigh == best.tlHigh &&
                spec.network.policyParams.weight == best.weight &&
                spec.network.policyCooldown == best.cooldown &&
                spec.network.link.freqTransitionLinkCycles ==
                    best.freqLockCycles;
            RunResults r;
            r.measuredCycles = spec.measure;
            r.packetsDelivered = 1000;
            r.avgLatencyCycles = isBest ? 90.0 : 100.0;
            r.avgPowerW = isBest ? 0.9 : 1.0;
            return r;
        });
    const SearchOutcome outcome = driver.run();
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.finalSurvivors, std::vector<std::size_t>{3});
    EXPECT_EQ(outcome.culled, outcome.candidates.size() - 1);
}

TEST(SearchDriverTest, NoDeliveryRecordNeitherCullsNorJoinsTheFront)
{
    // A window that delivers no packet reports latency 0, a mean of no
    // samples.  Read as a latency it would dominate every other point:
    // at zero slack it would cull them all, and it would be the front.
    SearchConfig config = synthConfig(42);
    for (auto &rung : config.rungs) {
        rung.slackLatency = 0.0;
        rung.slackPower = 0.0;
        rung.slackFraction = 0.0;
    }
    const Candidate silent = SearchDriver::candidateSet(config).at(3);
    SearchDriver driver(config);
    driver.setEvaluator(
        [silent](const ExperimentSpec &spec, double, std::uint64_t) {
            const bool isSilent =
                spec.network.policyParams.tlLow == silent.tlLow &&
                spec.network.policyParams.tlHigh == silent.tlHigh &&
                spec.network.policyParams.weight == silent.weight &&
                spec.network.policyCooldown == silent.cooldown &&
                spec.network.link.freqTransitionLinkCycles ==
                    silent.freqLockCycles;
            RunResults r;
            r.measuredCycles = spec.measure;
            r.packetsCreated = 1000;
            r.packetsDelivered = isSilent ? 0 : 1000;
            r.avgLatencyCycles = isSilent ? 0.0 : 100.0;
            r.avgPowerW = isSilent ? 0.5 : 1.0;
            return r;
        });
    const SearchOutcome outcome = driver.run();
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.culled, 0u);
    EXPECT_EQ(outcome.finalSurvivors.size(), outcome.candidates.size());
    ASSERT_FALSE(outcome.front.empty());
    for (const auto &point : outcome.front.points()) {
        EXPECT_EQ(point.objectives[0], 100.0);
        const auto *results = point.payload.find("results");
        ASSERT_NE(results, nullptr);
        EXPECT_GT(results->find("packets_delivered")->asDouble(), 0.0);
    }
}

TEST(SearchDriverTest, CommonRandomNumbersRecordOneStreamPerSearch)
{
    using dvsnet::testutil::countingLog;
    dvsnet::testutil::registerCountingWorkload();
    dvsnet::testutil::countingFailuresLeft = 0;

    SearchConfig config = realConfig();
    config.base.workloadSpec = "counting";
    // Ramps and locks short enough that the thresholds act inside
    // these windows: two candidates differing only in TL_low must then
    // simulate differently.
    config.base.network.link.voltageTransitionLatency =
        dvsnet::cyclesToTicks(50);
    config.threads = 2;
    Candidate lowTl;
    lowTl.tlLow = 0.05;
    Candidate highTl;
    highTl.tlLow = 0.35;
    config.seeded.push_back(lowTl);
    config.seeded.push_back(highTl);
    for (auto &rung : config.rungs)
        rung.slackFraction = 1.0;  // a cull needs twice the spread: none

    countingLog.clear();
    CounterRegistry registry;
    SearchDriver driver(config, &registry);
    const SearchOutcome outcome = driver.run();
    ASSERT_TRUE(outcome.completed);
    ASSERT_EQ(outcome.finalSurvivors.size(), outcome.candidates.size());

    // Every candidate at every rung replays one recorded stream, though
    // these rungs differ in warm-up as well as length: it covers the
    // longest rung.
    EXPECT_EQ(countingLog.size(), 1u);
    const std::uint64_t seed = driver.seedFor(outcome.candidates.front(), 0);
    for (const auto &candidate : outcome.candidates) {
        for (std::size_t rung = 0; rung < config.rungs.size(); ++rung)
            EXPECT_EQ(driver.seedFor(candidate, rung), seed);
    }

    // Same traffic, different policy: distinct keys, distinct results,
    // both served from the search's last rung.
    const auto low = driver.evaluateFull(lowTl);
    const auto high = driver.evaluateFull(highTl);
    EXPECT_EQ(registry.counterValue("search.network_evals"),
              outcome.networkEvals);
    EXPECT_NE(low.key, high.key);
    EXPECT_NE(dvsnet::network::toJson(low.results).dump(),
              dvsnet::network::toJson(high.results).dump());
}

TEST(EvalKey, EveryConfigFieldChangesTheKey)
{
    using dvsnet::search::evalKey;
    using Mutation = void (*)(ExperimentSpec &);

    // One entry per field of ExperimentSpec and of every struct it
    // holds; the static_asserts in the config echo pin the sizes this
    // list was written against.  router.numPorts is left out: Network
    // derives it from the topology.
#define DVSNET_FIELD(assignment)                                         \
    {                                                                    \
        #assignment, [](ExperimentSpec &s) { s.assignment; }             \
    }
    const std::vector<std::pair<const char *, Mutation>> fields = {
        DVSNET_FIELD(network.radix = 4),
        DVSNET_FIELD(network.dims = 3),
        DVSNET_FIELD(network.torus = true),
        DVSNET_FIELD(network.router.numVcs = 4),
        DVSNET_FIELD(network.router.bufferPerPort = 64),
        DVSNET_FIELD(network.router.pipelineLatency = 5),
        DVSNET_FIELD(network.link.voltageTransitionLatency = 1234),
        DVSNET_FIELD(network.link.freqTransitionLinkCycles = 50),
        DVSNET_FIELD(network.link.initialLevel = 2),
        DVSNET_FIELD(network.link.linksPerChannel = 4),
        DVSNET_FIELD(network.link.propagationDelay = 2000),
        DVSNET_FIELD(network.policy = PolicyKind::DynamicThreshold),
        DVSNET_FIELD(network.policyParams.weight = 4.0),
        DVSNET_FIELD(network.policyParams.weightOnHistory = false),
        DVSNET_FIELD(network.policyParams.bCongested = 0.6),
        DVSNET_FIELD(network.policyParams.tlLow = 0.25),
        DVSNET_FIELD(network.policyParams.tlHigh = 0.45),
        DVSNET_FIELD(network.policyParams.thLow = 0.65),
        DVSNET_FIELD(network.policyParams.thHigh = 0.75),
        DVSNET_FIELD(network.policyWindow = 100),
        DVSNET_FIELD(network.policyCooldown = 2),
        DVSNET_FIELD(network.staticLevel = 3),
        DVSNET_FIELD(network.routing =
                         dvsnet::network::RoutingKind::MinimalAdaptive),
        DVSNET_FIELD(network.packetLength = 4),
        DVSNET_FIELD(network.linkPowerSpec = "toggle"),
        DVSNET_FIELD(workload.avgConcurrentTasks = 50.0),
        DVSNET_FIELD(workload.meanTaskDurationCycles = 2e5),
        DVSNET_FIELD(workload.durationSpread = 0.25),
        DVSNET_FIELD(workload.networkInjectionRate = 2.0),
        DVSNET_FIELD(workload.rateSpread = 0.25),
        DVSNET_FIELD(workload.sourcesPerTask = 64),
        DVSNET_FIELD(workload.onOff.onShape = 1.5),
        DVSNET_FIELD(workload.onOff.offShape = 1.3),
        DVSNET_FIELD(workload.onOff.meanOnCycles = 301.0),
        DVSNET_FIELD(workload.onOff.meanOffCycles = 601.0),
        DVSNET_FIELD(workload.localityRadius = 3),
        DVSNET_FIELD(workload.pLocal = 0.75),
        DVSNET_FIELD(workload.perPacketDestination = true),
        DVSNET_FIELD(workload.seed = 99),
        DVSNET_FIELD(workloadSpec = "uniform"),
        DVSNET_FIELD(warmup = 20001),
        DVSNET_FIELD(measure = 150001),
    };
#undef DVSNET_FIELD

    const ExperimentSpec base;
    const std::string baseKey = evalKey(base, 1.2, 7);
    for (const auto &[name, mutate] : fields) {
        ExperimentSpec spec = base;
        mutate(spec);
        EXPECT_NE(evalKey(spec, 1.2, 7), baseKey) << name;
    }
    EXPECT_NE(evalKey(base, 1.25, 7), baseKey) << "rate";
    EXPECT_NE(evalKey(base, 1.2, 8), baseKey) << "seed";
}

namespace
{

/** A finished synthetic search's journal, header line first. */
std::string
synthJournal(const std::string &name)
{
    SearchConfig config = synthConfig(5);
    config.journalPath = tmpPath(name);
    runSynth(config);
    return fileBytes(config.journalPath);
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** The message of the ConfigError a warm start from `path` raises. */
std::string
warmStartError(const std::string &path)
{
    SearchConfig config = synthConfig(5);
    config.warmJournals = {path};
    try {
        runSynth(config);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(SearchJournal, OtherSchemaIsRejectedNamingBothIds)
{
    // A journal of the previous schema: its keys named neither the full
    // config echo nor the common traffic seed, so nothing in it may be
    // reused, and a resume from it must say so instead of silently
    // re-running every evaluation.
    const std::string bytes = synthJournal("journal_current.jsonl");
    const std::string records = bytes.substr(bytes.find('\n') + 1);
    const std::string path = tmpPath("journal_v1.jsonl");
    writeFile(path, "{\"schema\":\"dvsnet-search-v1\",\"search\":{}}\n" +
                        records);

    const std::string error = warmStartError(path);
    ASSERT_FALSE(error.empty()) << "a v1 journal warmed the cache";
    EXPECT_NE(error.find(path), std::string::npos) << error;
    EXPECT_NE(error.find("dvsnet-search-v1"), std::string::npos) << error;
    EXPECT_NE(error.find(dvsnet::search::kSearchJournalSchema),
              std::string::npos)
        << error;
}

TEST(SearchJournal, RecordsBeforeAnyHeaderAreRejected)
{
    const std::string bytes = synthJournal("journal_headed.jsonl");
    const std::string path = tmpPath("journal_headless.jsonl");
    writeFile(path, bytes.substr(bytes.find('\n') + 1));

    const std::string error = warmStartError(path);
    ASSERT_FALSE(error.empty()) << "a headerless journal warmed the cache";
    EXPECT_NE(error.find(path), std::string::npos) << error;
    EXPECT_NE(error.find(dvsnet::search::kSearchJournalSchema),
              std::string::npos)
        << error;
}

TEST(SearchJournal, EmptyFileLoadsNothing)
{
    const std::string path = tmpPath("journal_empty.jsonl");
    writeFile(path, "");
    SearchConfig config = synthConfig(5);
    config.warmJournals = {path};
    CounterRegistry registry;
    const SearchOutcome outcome = runSynth(config, &registry);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(registry.counterValue("search.warm_records"), 0u);
    EXPECT_EQ(outcome.cacheHits, 0u);
}

namespace
{

/**
 * `record` with member `member`'s scalar value text passed through
 * `edit`; an empty result cuts the member and the comma before it.
 */
std::string
editMember(const std::string &record, const std::string &member,
           const std::function<std::string(const std::string &)> &edit)
{
    const std::string tag = "\"" + member + "\":";
    const auto at = record.find(tag);
    if (at == std::string::npos) {
        ADD_FAILURE() << member << " not in " << record;
        return record;
    }
    const auto begin = at + tag.size();
    const auto end = record.find_first_of(",}", begin);
    const std::string value = edit(record.substr(begin, end - begin));
    if (value.empty())
        return record.substr(0, at - 1) + record.substr(end);
    return record.substr(0, begin) + value + record.substr(end);
}

/**
 * Load a finished search's journal whose third record has `member`
 * edited: the load must keep the two records before it and stop there,
 * as at a torn tail.
 */
void
expectEditedRecordEndsLoad(
    const std::string &name, const std::string &member,
    const std::function<std::string(const std::string &)> &edit)
{
    std::istringstream in(synthJournal(name + "_valid.jsonl"));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_GT(lines.size(), 4u);
    const std::string editedKey =
        dvsnet::Json::parse(lines[3]).find("key")->asString();
    lines[3] = editMember(lines[3], member, edit);

    std::string bytes;
    for (const auto &line : lines)
        bytes += line + "\n";
    const std::string path = tmpPath(name + ".jsonl");
    writeFile(path, bytes);

    dvsnet::search::ResultCache cache;
    EXPECT_EQ(cache.load(path), 2u) << lines[3];
    EXPECT_EQ(cache.find(editedKey), nullptr) << lines[3];
}

std::string
quoted(const std::string &value)
{
    return "\"" + value + "\"";
}

} // namespace

TEST(SearchJournal, RungAsStringEndsTheLoad)
{
    expectEditedRecordEndsLoad("journal_rung_string", "rung", quoted);
}

TEST(SearchJournal, FractionalRungEndsTheLoad)
{
    expectEditedRecordEndsLoad("journal_rung_fraction", "rung",
                               [](const std::string &) { return "0.5"; });
}

TEST(SearchJournal, SeedAsBareNumberEndsTheLoad)
{
    expectEditedRecordEndsLoad(
        "journal_seed_number", "seed", [](const std::string &seed) {
            return seed.substr(1, seed.size() - 2);
        });
}

TEST(SearchJournal, FractionalResultCountEndsTheLoad)
{
    expectEditedRecordEndsLoad(
        "journal_created_fraction", "packets_created",
        [](const std::string &count) { return count + ".0"; });
}

TEST(SearchJournal, ParamCountAsStringEndsTheLoad)
{
    expectEditedRecordEndsLoad("journal_cooldown_string",
                               "cooldown_windows", quoted);
}

TEST(SearchJournal, ParamsWithoutWeightEndTheLoad)
{
    expectEditedRecordEndsLoad("journal_no_weight", "weight",
                               [](const std::string &) { return ""; });
}

TEST(SearchJournal, NegativeCountsEndTheLoad)
{
    for (const char *member : {"measure_cycles", "warmup_cycles",
                               "measured_cycles"}) {
        SCOPED_TRACE(member);
        expectEditedRecordEndsLoad(
            std::string("journal_negative_") + member, member,
            [](const std::string &count) { return "-" + count; });
    }
}
