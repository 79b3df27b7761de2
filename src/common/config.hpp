/**
 * @file
 * Tiny typed key=value configuration store.
 *
 * Benches and examples accept `key=value` command-line overrides (plus
 * environment fallbacks such as DVSNET_CYCLES) so the paper's parameter
 * sweeps can be re-run at different fidelity without recompiling.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dvsnet
{

/**
 * `text` as a count: a non-negative integer in strtoull's base-0
 * notation, the whole string, at most INT64_MAX (so every echo of it
 * stays a JSON integer); nullopt otherwise.  Never wraps a sign.
 */
std::optional<std::uint64_t> parseCount(const std::string &text);

/** String-keyed config with typed accessors and defaults. */
class Config
{
  public:
    Config() = default;

    /** Parse argv-style `key=value` tokens; unknown formats are fatal. */
    static Config fromArgs(int argc, char **argv);

    /** Set a value (overwrites). */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present. */
    bool has(const std::string &key) const;

    /** Typed getters; fatal on unparsable values. */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * A count (cycles, seed, threads, points): a non-negative integer in
     * getInt's notation, at most INT64_MAX.  Also consults an
     * environment variable (upper-case key, prefixed DVSNET_) so e.g.
     * DVSNET_CYCLES=500000 scales all bench fidelity at once.  Priority:
     * explicit key > env > default.  A negative or out-of-range value
     * is fatal and named, never wrapped.
     */
    std::uint64_t getCountEnv(const std::string &key,
                              std::uint64_t def) const;

    /** getCountEnv without the environment fallback. */
    std::uint64_t getCount(const std::string &key, std::uint64_t def) const;

    /**
     * Reject any key outside `accepted`, so a misspelled or removed key
     * is an error rather than a silent no-op.  @throws ConfigError
     * "<who>: unknown key '<key>'" listing the accepted keys
     */
    void rejectUnknownKeys(const std::vector<std::string> &accepted,
                           const std::string &who) const;

    /** All keys, for diagnostics. */
    const std::map<std::string, std::string> &entries() const
    {
        return values_;
    }

  private:
    std::optional<std::string> lookup(const std::string &key) const;

    std::map<std::string, std::string> values_;
};

} // namespace dvsnet
