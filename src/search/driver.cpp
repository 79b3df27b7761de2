#include "search/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "exp/runner.hpp"

namespace dvsnet::search
{

namespace
{

/**
 * Caps on the counts a `search=` spec or a SearchConfig may ask for.
 * Both sizes are built in memory before any evaluation runs (the rung
 * ladder, the candidate set), so a huge count must be refused up front
 * rather than exhaust memory.  The repo's searches use at most 4 rungs
 * and 32 random candidates.
 */
constexpr std::size_t kMaxRungs = 64;
constexpr std::size_t kMaxRandomCandidates = 1000000;

// The box random candidates are sampled from.
constexpr double kTlLowMin = 0.05, kTlLowMax = 0.6;
constexpr double kTlGapMin = 0.05, kTlGapMax = 0.3;  ///< tlHigh = tlLow + gap
constexpr double kWeightMin = 1.0, kWeightMax = 7.0;
constexpr Cycle kCooldownMax = 4;
constexpr Cycle kFreqLockMin = 50, kFreqLockMax = 400;

/** Sampled parameters rounded so the canonical echo stays readable. */
double
round3(double value)
{
    return std::round(value * 1000.0) / 1000.0;
}

/** Whether `next`'s runs continue `rung`'s: the same warm-up, measured
 *  for longer (the seed is the same on every rung). */
bool
continuesRung(const RungSpec &rung, const RungSpec &next)
{
    return next.warmup == rung.warmup && next.measure > rung.measure;
}

/** The ladder's longest run, in cycles: the search's one packet stream
 *  covers it. */
Cycle
longestRun(const std::vector<RungSpec> &rungs)
{
    Cycle longest = 0;
    for (const auto &rung : rungs)
        longest = std::max(longest, rung.warmup + rung.measure);
    return longest;
}

} // namespace

struct SearchDriver::RunState
{
    /** Built on the first cache miss; it keeps the search's one packet
     *  stream (exp::PointJob::horizon) until run() returns. */
    std::optional<exp::ExperimentRunner> runner;

    /** Networks kept for the next rung, by candidate index. */
    std::map<std::size_t, std::shared_ptr<exp::LiveNetwork>> live;
};

Json
Candidate::toJson() const
{
    Json j = Json::object();
    j["cooldown_windows"] = Json(static_cast<std::uint64_t>(cooldown));
    j["freq_lock_cycles"] =
        Json(static_cast<std::uint64_t>(freqLockCycles));
    j["tl_high"] = Json(tlHigh);
    j["tl_low"] = Json(tlLow);
    j["weight"] = Json(weight);
    return j;
}

Candidate
Candidate::fromJson(const Json &j)
{
    if (!j.isObject())
        throw ConfigError("candidate echo must be a JSON object");
    constexpr const char *what = "candidate echo";
    Candidate c;
    c.cooldown = jsonCount(j, "cooldown_windows", what);
    c.freqLockCycles = jsonCount(j, "freq_lock_cycles", what);
    c.tlHigh = jsonNumber(j, "tl_high", what);
    c.tlLow = jsonNumber(j, "tl_low", what);
    c.weight = jsonNumber(j, "weight", what);
    return c;
}

std::vector<std::string>
SearchConfig::validate() const
{
    std::vector<std::string> problems;
    for (const auto &p : base.validate())
        problems.push_back("base experiment: " + p);

    if (auto rate = network::injectionRateProblem(base.network, injectionRate);
        !rate.empty())
        problems.push_back(std::move(rate));
    if (seeded.empty() && randomCandidates == 0)
        problems.push_back("candidate set is empty (no seeded or "
                           "random candidates)");
    if (randomCandidates > kMaxRandomCandidates) {
        problems.push_back(detail::concat(
            "random candidates ", randomCandidates, " exceed the cap of ",
            kMaxRandomCandidates));
    }
    if (threads > exp::kMaxThreads) {
        problems.push_back(detail::concat("threads ", threads,
                                          " exceed the cap of ",
                                          exp::kMaxThreads,
                                          " worker threads"));
    }
    if (rungs.empty())
        problems.push_back("fidelity ladder is empty (need >= 1 rung)");
    if (rungs.size() > kMaxRungs) {
        problems.push_back(detail::concat("fidelity ladder of ",
                                          rungs.size(),
                                          " rungs exceeds the cap of ",
                                          kMaxRungs));
    }

    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const auto &rung = rungs[i];
        if (rung.measure == 0) {
            problems.push_back(detail::concat(
                "rung ", i, ": measurement window must be positive"));
        }
        if (!(rung.slackFraction >= 0.0) ||
            !std::isfinite(rung.slackFraction)) {
            problems.push_back(detail::concat(
                "rung ", i,
                ": slack fraction must be non-negative and finite"));
        }
        if (rung.slackLatency < 0.0 || rung.slackPower < 0.0) {
            problems.push_back(detail::concat(
                "rung ", i, ": absolute slacks must be non-negative"));
        }
    }

    for (std::size_t i = 0; i < seeded.size(); ++i) {
        const auto &c = seeded[i];
        if (!(c.tlLow > 0.0) || !(c.tlHigh > c.tlLow)) {
            problems.push_back(detail::concat(
                "seeded candidate ", i,
                ": need 0 < tl_low < tl_high, got [", c.tlLow, ", ",
                c.tlHigh, "]"));
        }
        if (!(c.weight > 0.0)) {
            problems.push_back(detail::concat("seeded candidate ", i,
                                              ": weight must be > 0"));
        }
    }
    return problems;
}

Json
SearchConfig::toJson() const
{
    // Deliberately excludes journalPath / warmJournals / threads: the
    // echo names what determines the *results*, so a resumed or re-
    // threaded run writes a byte-identical journal header.
    Json ladder = Json::array();
    for (const auto &rung : rungs) {
        Json r = Json::object();
        r["warmup_cycles"] = Json(static_cast<std::uint64_t>(rung.warmup));
        r["measure_cycles"] =
            Json(static_cast<std::uint64_t>(rung.measure));
        r["slack_latency"] = Json(rung.slackLatency);
        r["slack_power"] = Json(rung.slackPower);
        r["slack_fraction"] = Json(rung.slackFraction);
        ladder.push(r);
    }

    Json seededEcho = Json::array();
    for (const auto &c : seeded)
        seededEcho.push(c.toJson());

    Json j = Json::object();
    j["base"] = network::toJson(base);
    j["injection_rate"] = Json(injectionRate);
    j["max_network_evals"] =
        Json(static_cast<std::uint64_t>(maxNetworkEvals));
    j["random_candidates"] =
        Json(static_cast<std::uint64_t>(randomCandidates));
    j["rungs"] = ladder;
    j["seed"] = Json(std::to_string(seed));
    j["seeded"] = seededEcho;
    return j;
}

std::vector<Candidate>
SearchDriver::candidateSet(const SearchConfig &config)
{
    std::vector<Candidate> out = config.seeded;

    // The sampling stream depends only on the master seed, so the
    // candidate set is a pure function of the config — resumed and
    // re-sharded runs regenerate the identical set.
    Rng rng(exp::pointSeed(config.seed, std::string("candidate-set")));
    for (std::size_t i = 0; i < config.randomCandidates; ++i) {
        Candidate c;
        c.tlLow = round3(rng.uniform(kTlLowMin, kTlLowMax));
        c.tlHigh = round3(c.tlLow + rng.uniform(kTlGapMin, kTlGapMax));
        c.weight = round3(rng.uniform(kWeightMin, kWeightMax));
        c.cooldown = rng.uniformInt(kCooldownMax + 1);
        c.freqLockCycles =
            kFreqLockMin + rng.uniformInt(kFreqLockMax - kFreqLockMin + 1);
        out.push_back(c);
    }

    // Drop exact repeats (a sample landing on a seeded point would
    // journal the same key twice); first occurrence wins.
    std::vector<Candidate> unique;
    std::vector<std::string> seen;
    unique.reserve(out.size());
    for (const auto &c : out) {
        const std::string echo = canonicalJson(c.toJson()).dump();
        if (std::find(seen.begin(), seen.end(), echo) != seen.end())
            continue;
        seen.push_back(echo);
        unique.push_back(c);
    }
    return unique;
}

SearchDriver::SearchDriver(SearchConfig config, CounterRegistry *registry)
    : config_(std::move(config)),
      registry_(registry ? registry : &ownRegistry_)
{
    const auto problems = config_.validate();
    if (!problems.empty())
        throw ConfigError(joinProblems("invalid search config", problems));
}

void
SearchDriver::setEvaluator(Evaluator evaluator)
{
    evaluator_ = std::move(evaluator);
}

network::ExperimentSpec
SearchDriver::specFor(const Candidate &candidate,
                      const RungSpec &rung) const
{
    network::ExperimentSpec spec = config_.base;
    spec.network.policy = network::PolicyKind::History;
    spec.network.policyParams.tlLow = candidate.tlLow;
    spec.network.policyParams.tlHigh = candidate.tlHigh;
    spec.network.policyParams.weight = candidate.weight;
    spec.network.policyCooldown = candidate.cooldown;
    spec.network.link.freqTransitionLinkCycles = candidate.freqLockCycles;
    spec.warmup = rung.warmup;
    spec.measure = rung.measure;
    return spec;
}

std::uint64_t
SearchDriver::seedFor(const Candidate &, std::size_t) const
{
    // Common random numbers: one traffic realization for every
    // evaluation, so candidates differ only in their policy.  With
    // warm-up equal on every rung, each rung's run is also a prefix of
    // the next one's.
    return exp::pointSeed(config_.seed, std::string("traffic"));
}

EvalRecord
SearchDriver::evaluateOne(const Candidate &candidate, std::size_t rung)
{
    const RungSpec &r = config_.rungs.at(rung);
    const network::ExperimentSpec spec = specFor(candidate, r);
    const std::uint64_t seed = seedFor(candidate, rung);
    const std::string key = evalKey(spec, config_.injectionRate, seed);

    if (const EvalRecord *hit = cache_.find(key)) {
        ++registry_->counter("search.cache_hits");
        return *hit;
    }

    EvalRecord record;
    record.key = key;
    record.rung = rung;
    record.seed = seed;
    record.rate = config_.injectionRate;
    record.warmup = r.warmup;
    record.measure = r.measure;
    record.params = candidate.toJson();
    record.results =
        evaluator_
            ? evaluator_(spec, config_.injectionRate, seed)
            : exp::runPoint(spec, config_.injectionRate, seed);
    ++registry_->counter("search.network_evals");
    if (rung + 1 == config_.rungs.size())
        ++registry_->counter("search.network_evals_full");
    cache_.insert(record);
    return record;
}

EvalRecord
SearchDriver::evaluateFull(const Candidate &candidate)
{
    return evaluateOne(candidate, config_.rungs.size() - 1);
}

std::optional<std::vector<EvalRecord>>
SearchDriver::evaluateRung(const std::vector<Candidate> &candidates,
                           const std::vector<std::size_t> &survivors,
                           std::size_t rung, RunState &state)
{
    const RungSpec &r = config_.rungs.at(rung);
    const bool fullRung = rung + 1 == config_.rungs.size();

    // Pass 1: resolve keys, split hits from misses (candidate order).
    struct Slot
    {
        std::size_t candidate;
        std::string key;
        std::uint64_t seed;
        bool cached;
    };
    std::vector<Slot> slots;
    std::vector<std::size_t> missSlots;
    slots.reserve(survivors.size());
    for (const std::size_t idx : survivors) {
        Slot slot;
        slot.candidate = idx;
        slot.seed = seedFor(candidates[idx], rung);
        slot.key = evalKey(specFor(candidates[idx], r),
                           config_.injectionRate, slot.seed);
        slot.cached = cache_.find(slot.key) != nullptr;
        if (!slot.cached)
            missSlots.push_back(slots.size());
        slots.push_back(std::move(slot));
    }

    // Budget gate: a rung either runs whole or not at all, so the
    // journal always ends at a rung boundary (the resume contract).
    if (config_.maxNetworkEvals != 0) {
        const std::uint64_t spent =
            registry_->counterValue("search.network_evals");
        if (spent + missSlots.size() > config_.maxNetworkEvals)
            return std::nullopt;
    }

    // Pass 2: run the misses — in parallel through the runner for real
    // network evaluations, serially for injected test evaluators.
    std::vector<EvalRecord> missRecords(missSlots.size());
    if (evaluator_) {
        for (std::size_t m = 0; m < missSlots.size(); ++m) {
            const Slot &slot = slots[missSlots[m]];
            EvalRecord rec;
            rec.results = evaluator_(specFor(candidates[slot.candidate], r),
                                     config_.injectionRate, slot.seed);
            missRecords[m] = std::move(rec);
        }
    } else if (!missSlots.empty()) {
        if (!state.runner) {
            exp::RunnerOptions options;
            options.threads = config_.threads;
            state.runner.emplace(std::move(options));
        }
        // A candidate kept live by the last rung runs on from there,
        // ahead of the rung's other runs, so each kept network is freed
        // or kept again before most new ones are built.  Of this rung's
        // runs, the last 2 x workers in run order (the ones still
        // running at the end of the rung, and as many again) stay live
        // when the next rung continues this one's runs.
        auto previous = std::move(state.live);
        state.live.clear();
        std::vector<std::size_t> order(missSlots.size());  // run order
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_partition(order.begin(), order.end(), [&](std::size_t m) {
            return previous.contains(slots[missSlots[m]].candidate);
        });
        const bool keep =
            !fullRung && continuesRung(r, config_.rungs[rung + 1]);
        const std::size_t keepFrom =
            order.size() -
            std::min(order.size(), 2 * state.runner->threadCount());
        const Cycle horizon = longestRun(config_.rungs);
        for (std::size_t q = 0; q < order.size(); ++q) {
            const Slot &slot = slots[missSlots[order[q]]];
            exp::PointJob job;
            job.spec = specFor(candidates[slot.candidate], r);
            job.injectionRate = config_.injectionRate;
            job.seed = slot.seed;
            job.horizon = horizon;
            job.keep = keep && q >= keepFrom;
            if (const auto it = previous.find(slot.candidate);
                it != previous.end()) {
                job.resume = std::move(it->second);
                ++registry_->counter("search.continued");
            }
            state.runner->submit(std::move(job));
        }
        previous.clear();  // live networks no miss of this rung continues
        auto results = state.runner->collect();
        for (std::size_t q = 0; q < order.size(); ++q) {
            const std::size_t candidate = slots[missSlots[order[q]]].candidate;
            if (!results[q].ok) {
                throw ConfigError(detail::concat(
                    "search evaluation failed (rung ", rung,
                    ", candidate ", candidate, "): ", results[q].error));
            }
            missRecords[order[q]].results = results[q].results;
            if (results[q].live)
                state.live[candidate] = std::move(results[q].live);
        }
    }

    // Pass 3: assemble records in candidate order, cache the misses.
    std::vector<EvalRecord> records;
    records.reserve(slots.size());
    std::size_t nextMiss = 0;
    for (const Slot &slot : slots) {
        if (slot.cached) {
            ++registry_->counter("search.cache_hits");
            records.push_back(*cache_.find(slot.key));
            continue;
        }
        EvalRecord rec = std::move(missRecords[nextMiss++]);
        rec.key = slot.key;
        rec.rung = rung;
        rec.seed = slot.seed;
        rec.rate = config_.injectionRate;
        rec.warmup = r.warmup;
        rec.measure = r.measure;
        rec.params = candidates[slot.candidate].toJson();
        ++registry_->counter("search.network_evals");
        if (fullRung)
            ++registry_->counter("search.network_evals_full");
        cache_.insert(rec);
        records.push_back(std::move(rec));
    }
    return records;
}

namespace
{

/**
 * A record whose window delivered no packet has no latency: its mean
 * of no samples reads 0, the best latency there is, so such a record
 * would dominate every point that has one.  It neither culls another
 * candidate nor enters the front.
 */
bool
hasLatency(const EvalRecord &rec)
{
    return rec.results.packetsDelivered > 0;
}

} // namespace

std::vector<std::size_t>
SearchDriver::cull(const std::vector<std::size_t> &survivors,
                   const std::vector<EvalRecord> &records,
                   const RungSpec &rung)
{
    // Derive absolute slacks: explicit value wins, otherwise a fraction
    // of this rung's observed objective spread.
    std::vector<double> slack = {rung.slackLatency, rung.slackPower};
    for (std::size_t k = 0; k < slack.size(); ++k) {
        if (slack[k] > 0.0)
            continue;
        double lo = records.front().objectives()[k];
        double hi = lo;
        for (const auto &rec : records) {
            lo = std::min(lo, rec.objectives()[k]);
            hi = std::max(hi, rec.objectives()[k]);
        }
        slack[k] = rung.slackFraction * (hi - lo);
    }

    // Terminate candidate i only when some j dominates it with a 2*slack
    // margin in EVERY objective: if each rung objective sits within
    // slack of its full-fidelity value, then at full fidelity j is still
    // <= i everywhere — a culled candidate can never be a true Pareto
    // point (see the file comment in driver.hpp).  An equal vector never
    // culls: under common random numbers candidates tie exactly, and
    // nothing then tells them apart.
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < survivors.size(); ++i) {
        const auto objI = records[i].objectives();
        bool culled = false;
        for (std::size_t j = 0; j < survivors.size() && !culled; ++j) {
            if (!hasLatency(records[j]))
                continue;
            const auto objJ = records[j].objectives();
            if (objJ == objI)
                continue;
            bool margin = true;
            for (std::size_t k = 0; k < objI.size() && margin; ++k)
                margin = objJ[k] + 2.0 * slack[k] <= objI[k];
            culled = margin;
        }
        if (culled)
            ++registry_->counter("search.culled");
        else
            kept.push_back(survivors[i]);
    }
    return kept;
}

SearchOutcome
SearchDriver::run()
{
    SearchOutcome outcome;
    outcome.candidates = candidateSet(config_);
    registry_->counter("search.candidates") = outcome.candidates.size();

    if (!warmed_) {
        std::size_t loaded = 0;
        for (const auto &path : config_.warmJournals)
            loaded += cache_.load(path);
        registry_->counter("search.warm_records") += loaded;
        warmed_ = true;
    }

    std::optional<JournalWriter> writer;
    if (!config_.journalPath.empty())
        writer.emplace(config_.journalPath, config_.toJson());

    std::vector<std::size_t> survivors(outcome.candidates.size());
    for (std::size_t i = 0; i < survivors.size(); ++i)
        survivors[i] = i;

    RunState state;
    for (std::size_t rung = 0; rung < config_.rungs.size(); ++rung) {
        auto records =
            evaluateRung(outcome.candidates, survivors, rung, state);
        if (!records) {
            // Evaluation budget exhausted: stop at the rung boundary.
            outcome.completed = false;
            break;
        }

        for (const auto &rec : *records) {
            if (writer)
                writer->append(rec);
            outcome.journal.push_back(rec);
        }

        if (rung + 1 == config_.rungs.size()) {
            outcome.finalSurvivors = survivors;
            for (const auto &rec : *records) {
                if (!hasLatency(rec))
                    continue;
                Json payload = Json::object();
                payload["params"] = rec.params;
                payload["results"] = network::toJson(rec.results);
                outcome.front.insert(
                    FrontPoint{rec.objectives(), rec.key,
                               std::move(payload)});
            }
            outcome.completed = true;
        } else {
            survivors = cull(survivors, *records,
                             config_.rungs.at(rung));
            // A culled candidate's network is freed at the cull.
            std::erase_if(state.live, [&](const auto &entry) {
                return !std::binary_search(survivors.begin(),
                                           survivors.end(), entry.first);
            });
        }
    }

    outcome.networkEvals =
        registry_->counterValue("search.network_evals");
    outcome.networkEvalsFull =
        registry_->counterValue("search.network_evals_full");
    outcome.cacheHits = registry_->counterValue("search.cache_hits");
    outcome.culled = registry_->counterValue("search.culled");
    outcome.continued = registry_->counterValue("search.continued");
    return outcome;
}

namespace
{

/** The successive-halving strategy: `base` with the spec's candidate
 *  count, evaluation budget and fidelity ladder applied. */
SearchConfig
successiveHalving(const Spec &spec, const SearchConfig &base)
{
    constexpr double kNoLimit = std::numeric_limits<double>::infinity();
    SearchConfig config = base;
    config.randomCandidates =
        spec.count("candidates", config.randomCandidates);
    if (config.randomCandidates > kMaxRandomCandidates) {
        spec.reject("candidates",
                    detail::concat("must be <= ", kMaxRandomCandidates));
    }
    config.maxNetworkEvals = spec.count("budget", config.maxNetworkEvals);
    const std::size_t numRungs = spec.count("rungs", 3);
    if (numRungs == 0 || numRungs > kMaxRungs)
        spec.reject("rungs", detail::concat("must be in [1, ", kMaxRungs,
                                            "]"));
    const double step = spec.number("step", 5.0, 1.0, kNoLimit);
    if (!(step > 1.0))
        spec.reject("step", "must be > 1");
    const double slack = spec.number("slack", 0.15, 0.0, kNoLimit);

    // Geometric fidelity ladder ending exactly at the base windows:
    // rung k measures 1/step^(K-1-k) of the full window, floored so
    // even aggressive ladders keep a meaningful measurement.  Warm-up
    // stays at the full value on every rung: it absorbs the DVS level
    // transient (~110k cycles in the paper setup), so truncating it
    // would change *what* is measured — the slack model only licenses
    // culling when a rung measures the same steady state with less
    // averaging.
    config.rungs.clear();
    for (std::size_t k = 0; k < numRungs; ++k) {
        const double factor =
            std::pow(step, static_cast<double>(numRungs - 1 - k));
        RungSpec rung;
        rung.warmup = config.base.warmup;
        rung.measure = std::max<Cycle>(
            static_cast<Cycle>(
                static_cast<double>(config.base.measure) / factor),
            1000);
        rung.slackFraction = slack;
        if (k + 1 == numRungs)
            rung.measure = config.base.measure;
        config.rungs.push_back(rung);
    }
    return config;
}

const Registry<SearchConfig, SearchConfig> &
strategies()
{
    static const auto registry = [] {
        Registry<SearchConfig, SearchConfig> r("search strategy");
        r.add("successive-halving",
              "cull candidates dominated with margin on a geometric "
              "fidelity ladder",
              {"budget", "candidates", "rungs", "slack", "step"},
              successiveHalving);
        return r;
    }();
    return registry;
}

} // namespace

std::vector<std::string>
validateSearchSpec(const std::string &text)
{
    try {
        return strategies().validate(Spec::parse(text));
    } catch (const ConfigError &e) {
        return {e.what()};
    }
}

void
applySearchSpec(SearchConfig &config, const Spec &spec)
{
    config = strategies().build(spec, config);
}

} // namespace dvsnet::search
