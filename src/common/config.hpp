/**
 * @file
 * Tiny typed key=value configuration store.
 *
 * Benches and examples accept `key=value` command-line overrides (plus
 * environment fallbacks such as DVSNET_CYCLES) so the paper's parameter
 * sweeps can be re-run at different fidelity without recompiling.
 *
 * Integers and counts are read in decimal, like the spec strings'
 * (common/spec.hpp): the whole value, no sign on a count, no leading
 * `+` or whitespace, no hex or octal.
 */

#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dvsnet
{

/** The largest count: INT64_MAX, so every echo of one stays a JSON
 *  integer. */
inline constexpr std::uint64_t kMaxCount =
    std::numeric_limits<std::int64_t>::max();

/**
 * `text` as a count: decimal digits only, the whole string, at most
 * kMaxCount; nullopt otherwise.  Never wraps a sign.
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
    bool getBool(const std::string &key, bool def) const;

    /**
     * A decimal integer in [lo, hi], by default the whole range of
     * `Int`: read at the width it lands in, so it never wraps.  Fatal
     * otherwise, naming the key, the value and the range.
     */
    template <typename Int>
    Int getInt(const std::string &key, Int def,
               Int lo = std::numeric_limits<Int>::min(),
               Int hi = std::numeric_limits<Int>::max()) const;

    /**
     * A number with no range check: NaN and infinities parse.  Only for
     * values whose reader rejects them by name (a spec's validate(),
     * bench::defaultRates).
     */
    double getDouble(const std::string &key, double def) const;

    /** A finite number in [lo, hi]; fatal otherwise, naming the key,
     *  the value and the range. */
    double getDouble(
        const std::string &key, double def, double lo,
        double hi = std::numeric_limits<double>::infinity()) const;

    /**
     * A count (cycles, seed, threads, points) in [lo, hi]: see
     * parseCount.  Also consults an environment variable (upper-case
     * key, prefixed DVSNET_) so e.g. DVSNET_CYCLES=500000 scales all
     * bench fidelity at once.  Priority: explicit key > env > default.
     * A negative or out-of-range value is fatal and named, never
     * wrapped.
     */
    std::uint64_t getCountEnv(const std::string &key, std::uint64_t def,
                              std::uint64_t lo = 0,
                              std::uint64_t hi = kMaxCount) const;

    /** getCountEnv without the environment fallback. */
    std::uint64_t getCount(const std::string &key, std::uint64_t def,
                           std::uint64_t lo = 0,
                           std::uint64_t hi = kMaxCount) const;

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

    /** Exit naming `key`, its `value` and the range [lo, hi]. */
    [[noreturn]] static void rejectInteger(const std::string &key,
                                           const std::string &value,
                                           const std::string &lo,
                                           const std::string &hi);

    std::map<std::string, std::string> values_;
};

template <typename Int>
Int
Config::getInt(const std::string &key, Int def, Int lo, Int hi) const
{
    const auto value = lookup(key);
    if (!value)
        return def;
    Int out{};
    const char *end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, out);
    if (ec != std::errc{} || ptr != end || out < lo || out > hi)
        rejectInteger(key, *value, std::to_string(lo), std::to_string(hi));
    return out;
}

} // namespace dvsnet
