/**
 * @file
 * Warm on-disk result cache + evaluation journal for the search driver.
 *
 * Every evaluation the search performs is identified by a canonical
 * key: the experiment's full config echo (network + workload + windows),
 * the injection rate and the workload seed are serialized to JSON with
 * recursively sorted object keys and compact formatting, then hashed.
 * Two evaluations with the same key are the same deterministic
 * simulation, so a cached result can stand in for a re-run
 * bit-identically.
 *
 * The journal is an append-only JSON-lines file: a header line naming
 * the schema, then one compact record per completed evaluation in the
 * driver's deterministic (rung, candidate) order.  The same file doubles
 * as the cache's on-disk form — `ResultCache::load` accepts any journal
 * of the current schema (including one from a killed run: a truncated
 * or torn final line just ends the load), so `--resume <journal>` and
 * shard-merge (`--cache` on several journals) are the same mechanism.
 * Records carry no wall-clock or host-dependent fields, which is what
 * makes a resumed search's rewritten journal byte-identical to a cold
 * run's.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "network/sweep.hpp"

namespace dvsnet::search
{

/**
 * Journal/cache schema id (the header line's "schema" value).  v2 keys
 * every evaluation on the complete config echo and the search's common
 * traffic seed; v1 keys named neither, so v1 journals are refused.
 */
inline constexpr const char *kSearchJournalSchema = "dvsnet-search-v2";

/**
 * `value` re-serialized with every object's keys sorted recursively and
 * compact formatting — the canonical form hashed into evaluation keys
 * (insertion order of the echo no longer matters).
 */
Json canonicalJson(const Json &value);

/** FNV-1a 64-bit over `text`, rendered as 16 lowercase hex digits. */
std::string hashKey(const std::string &text);

/**
 * Canonical evaluation key for (spec, rate, seed): hash of the
 * canonicalized config echo with the rate and seed folded in.
 */
std::string evalKey(const network::ExperimentSpec &spec, double rate,
                    std::uint64_t seed);

/** One completed evaluation, as journaled and cached. */
struct EvalRecord
{
    std::string key;           ///< evalKey of (spec, rate, seed)
    std::size_t rung = 0;      ///< fidelity rung index (0 = cheapest)
    std::uint64_t seed = 0;    ///< workload seed used
    double rate = 0.0;         ///< injection rate
    Cycle warmup = 0;          ///< rung warm-up window
    Cycle measure = 0;         ///< rung measurement window
    Json params;               ///< candidate parameter echo
    network::RunResults results;

    /** Objective vector {avg latency (cycles), avg power (W)}. */
    std::vector<double> objectives() const
    {
        return {results.avgLatencyCycles, results.avgPowerW};
    }

    /** Compact single-line journal record. */
    Json toJson() const;

    /**
     * @throws ConfigError on a missing or mis-typed field, a negative
     * count, or a `params` echo Candidate::fromJson refuses.
     */
    static EvalRecord fromJson(const Json &j);
};

/** In-memory key -> record map with journal-file loading. */
class ResultCache
{
  public:
    /**
     * Load every well-formed record from a journal file into the cache
     * (later loads win on key collision).  A torn or truncated tail —
     * the signature of a killed run — ends the load silently, and so
     * does any record EvalRecord::fromJson refuses; an empty file loads
     * nothing.  Throws ConfigError when the file is missing (a named
     * warm source must exist), when a header names another schema than
     * kSearchJournalSchema, or when a record comes before any header.
     * Returns the number of records loaded.
     */
    std::size_t load(const std::string &path);

    /** Cached record for `key`, or nullptr. */
    const EvalRecord *find(const std::string &key) const;

    void insert(EvalRecord record);

    std::size_t size() const { return records_.size(); }

  private:
    std::map<std::string, EvalRecord> records_;
};

/**
 * Deterministic journal writer: header line at open, then one compact
 * record per append, flushed so a killed process leaves at most one torn
 * line.  Opening truncates — a resumed search rewrites its journal from
 * the warm cache, reproducing the cold run's bytes.
 */
class JournalWriter
{
  public:
    /**
     * Open (truncate) `path` and write the header line.  `searchEcho`
     * is embedded in the header for provenance.  @throws ConfigError
     * when the file cannot be created.
     */
    JournalWriter(const std::string &path, Json searchEcho);

    void append(const EvalRecord &record);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
};

} // namespace dvsnet::search
