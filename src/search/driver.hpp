/**
 * @file
 * Multi-objective DVS policy search: a successive-halving driver over
 * the threshold / history-weight / transition-cost / re-enable-
 * hysteresis design space, layered on exp::ExperimentRunner.
 *
 * The driver evaluates a deterministic candidate set (explicit seeded
 * candidates — e.g. the Fig. 15 threshold grid — plus Rng-sampled ones)
 * through a ladder of fidelity *rungs*: every surviving candidate is
 * simulated at the rung's short warm-up/measurement windows, then
 * candidates that are dominated *with margin* are terminated before the
 * next, more expensive rung.  The culling rule is conservative by
 * construction: candidate `c` dies at a rung only when some candidate
 * `d` satisfies
 *
 *     obj_d[i] + 2 * slack[i] <= obj_c[i]       for every objective i,
 *
 * and obj_d != obj_c (equal vectors never cull each other), so whenever
 * the rung's objectives sit within `slack` of their full-fidelity
 * values, a culled candidate is provably dominated at full fidelity too
 * — no true Pareto point of the final metric is ever discarded
 * (tests/test_search_driver.cpp pins this on a closed-form objective).
 * Only last-rung (full-fidelity) evaluations enter the returned
 * ParetoFront.
 *
 * Every evaluation is keyed by search::evalKey (canonical config JSON +
 * seed) and consulted against a warm ResultCache first; completed
 * evaluations are journaled per rung in deterministic candidate order.
 * Traffic uses common random numbers: every evaluation's seed derives
 * from the search's master seed alone, so all candidates at every rung,
 * and the grid baseline through evaluateFull, replay one traffic
 * realization and differ only in their policy.  One
 * exp::ExperimentRunner serves every rung of a run() and records that
 * realization once, through the longest rung's end.  Seeds never depend
 * on schedule position, so a resumed, warmed or re-sharded search
 * reproduces a cold run's front and journal byte-for-byte.
 *
 * Rungs continue runs.  When rung k+1 keeps rung k's warm-up and
 * measures longer (every ladder applySearchSpec builds), rung k's run is
 * a prefix of rung k+1's, so the driver keeps up to 2 x the worker
 * count of rung k's networks alive (the last ones in the rung's run
 * order) and runs them on to rung k+1's end (exp::LiveNetwork) instead
 * of from cycle 0, ahead of the rung's other runs.  The bound and that
 * order keep peak memory near that of a search that keeps none.  A
 * culled candidate's network is freed at the cull, and every network
 * after its last-rung collect.  Any other candidate is built and run
 * from cycle 0; the results are equal either way.
 *
 * The `search=` strategy spec (validateSearchSpec, applySearchSpec) is
 * a spec string: its grammar, value rules and rejection messages are
 * common/spec.hpp's.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/spec.hpp"
#include "network/sweep.hpp"
#include "search/cache.hpp"
#include "search/pareto.hpp"

namespace dvsnet::search
{

/** One point of the searched DVS parameter space. */
struct Candidate
{
    double tlLow = 0.3;   ///< light-load slow-down threshold (TL_low)
    double tlHigh = 0.4;  ///< light-load speed-up threshold (TL_high)
    double weight = 3.0;  ///< history weight W (Eq. 5)

    /** Re-enable hysteresis: post-transition hold, in policy windows. */
    Cycle cooldown = 0;

    /** Transition cost: frequency re-lock duration, link clock cycles. */
    Cycle freqLockCycles = 100;

    /** Canonical echo (alphabetical keys) — hashed into seeds/keys. */
    Json toJson() const;

    /** @throws ConfigError on missing/mis-typed fields. */
    static Candidate fromJson(const Json &j);
};

/** One fidelity rung of the successive-halving ladder. */
struct RungSpec
{
    Cycle warmup = 0;
    Cycle measure = 0;

    /**
     * Absolute culling slack per objective (latency in cycles, power in
     * watts).  When a slack is 0, it is derived as `slackFraction` of
     * that objective's spread across the rung's evaluations.
     */
    double slackLatency = 0.0;
    double slackPower = 0.0;
    double slackFraction = 0.15;
};

/** Everything a search run depends on (all deterministic inputs). */
struct SearchConfig
{
    /** Base experiment; policy fields are overridden per candidate. */
    network::ExperimentSpec base;

    double injectionRate = 1.7;  ///< the Fig. 15 operating point
    std::uint64_t seed = 12345;  ///< search master seed

    /** Explicit candidates evaluated ahead of the sampled ones (the
     *  bench seeds the Fig. 15 threshold grid here). */
    std::vector<Candidate> seeded;

    /** Rng-sampled candidates appended after the seeded ones, drawn
     *  from one fixed box of thresholds, weights, cooldowns and
     *  frequency-lock times (at most 10^6; validate() enforces the
     *  cap). */
    std::size_t randomCandidates = 16;

    /** Fidelity ladder, cheapest first; the last rung is "full" (at
     *  most 64 rungs; validate() enforces the cap). */
    std::vector<RungSpec> rungs;

    /** Evaluation worker threads (0 = all; at most exp::kMaxThreads). */
    std::size_t threads = 0;

    /**
     * Network-evaluation budget (0 = unlimited).  When the next rung's
     * cache misses would exceed it, the run stops cleanly with
     * `completed = false`, leaving the journal at a rung boundary — the
     * deterministic stand-in for a killed process, used by the resume
     * tests and by operators slicing a big search across sessions.
     */
    std::size_t maxNetworkEvals = 0;

    /** Journal output path ("" = keep the journal in memory only). */
    std::string journalPath;

    /** Journals loaded as warm cache before any evaluation (resume /
     *  shard merge).  Loaded in order; later files win on key clash. */
    std::vector<std::string> warmJournals;

    /** Problems with the configuration; empty = valid. */
    std::vector<std::string> validate() const;

    /** Deterministic echo (for the journal header / artifacts). */
    Json toJson() const;
};

/** What a finished (or budget-stopped) search hands back. */
struct SearchOutcome
{
    /** Non-dominated set over {avg latency, avg power}, built from
     *  last-rung evaluations only. */
    ParetoFront front{2};

    /** Every journaled record in deterministic (rung, candidate) order —
     *  exactly the journal file's records. */
    std::vector<EvalRecord> journal;

    /** The full candidate set (seeded + sampled). */
    std::vector<Candidate> candidates;

    /** Candidate indices that reached the final rung. */
    std::vector<std::size_t> finalSurvivors;

    bool completed = false;  ///< false = stopped by maxNetworkEvals

    // Counter snapshots (also live in the registry).
    std::uint64_t networkEvals = 0;      ///< simulations actually run
    std::uint64_t networkEvalsFull = 0;  ///< last-rung simulations
    std::uint64_t cacheHits = 0;
    std::uint64_t culled = 0;            ///< candidates terminated early

    /** Simulations that ran a kept network on from an earlier rung
     *  instead of from cycle 0 (counted in networkEvals too). */
    std::uint64_t continued = 0;
};

/** Successive-halving multi-objective search driver (see file comment). */
class SearchDriver
{
  public:
    /**
     * Evaluation hook: maps (spec, rate, seed) to results.  The default
     * runs the real network through exp::ExperimentRunner (parallel
     * across a rung); tests substitute closed-form objectives.
     */
    using Evaluator = std::function<network::RunResults(
        const network::ExperimentSpec &, double rate,
        std::uint64_t seed)>;

    /**
     * @param config search description (validated here; throws
     *        ConfigError listing every problem)
     * @param registry counter sink for `search.*` (nullptr = internal)
     */
    explicit SearchDriver(SearchConfig config,
                          CounterRegistry *registry = nullptr);

    /** Replace the network evaluator (custom evaluators run serially). */
    void setEvaluator(Evaluator evaluator);

    /** Execute the search (see file comment). */
    SearchOutcome run();

    /**
     * Cache-aware full-fidelity evaluation of one candidate, with the
     * identical spec/seed/key derivation as the search's last rung —
     * the grid baseline goes through this so shared candidates produce
     * bit-identical numbers (and cache hits) on both sides.  Does not
     * touch the journal.
     */
    EvalRecord evaluateFull(const Candidate &candidate);

    const SearchConfig &config() const { return config_; }

    /** Seeded + sampled candidate set (pure function of the config). */
    static std::vector<Candidate>
    candidateSet(const SearchConfig &config);

    /** Experiment for `candidate` at rung fidelity. */
    network::ExperimentSpec specFor(const Candidate &candidate,
                                    const RungSpec &rung) const;

    /**
     * Traffic seed of every evaluation: a function of the master seed
     * alone (common random numbers; see the file comment).  Both
     * arguments are unused; they name what the seed deliberately does
     * not depend on.
     */
    std::uint64_t seedFor(const Candidate &candidate,
                          std::size_t rung) const;

  private:
    /** What one run() keeps across rungs: the runner and the networks
     *  left alive for the next rung (driver.cpp). */
    struct RunState;

    EvalRecord evaluateOne(const Candidate &candidate, std::size_t rung);

    /** All survivor records in candidate order, or nullopt when the
     *  rung's cache misses would blow the evaluation budget. */
    std::optional<std::vector<EvalRecord>>
    evaluateRung(const std::vector<Candidate> &candidates,
                 const std::vector<std::size_t> &survivors,
                 std::size_t rung, RunState &state);
    std::vector<std::size_t>
    cull(const std::vector<std::size_t> &survivors,
         const std::vector<EvalRecord> &records, const RungSpec &rung);

    SearchConfig config_;
    CounterRegistry ownRegistry_;
    CounterRegistry *registry_;
    Evaluator evaluator_;  ///< empty = default network evaluation
    ResultCache cache_;
    bool warmed_ = false;
};

/**
 * Problems with a raw `search=` spec string (unknown strategy or keys);
 * empty = valid.  The only registered strategy is "successive-halving";
 * its keys (budget, candidates, rungs, slack, step) size the candidate
 * set and fidelity ladder against a base experiment.
 */
std::vector<std::string> validateSearchSpec(const std::string &text);

/**
 * Fold a spec into `config`: candidate count, rung ladder (geometric
 * fidelity steps of the base windows), slack fraction and evaluation
 * budget.  @throws ConfigError on an invalid spec or value.
 */
void applySearchSpec(SearchConfig &config, const Spec &spec);

} // namespace dvsnet::search
