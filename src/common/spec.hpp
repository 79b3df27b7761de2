/**
 * @file
 * Spec strings and command lines: the one grammar and the one registry
 * behind every `key=value` the simulator accepts — a binary's command
 * line (Spec::fromArgs), workloads (`--workload`, workload/factory.hpp),
 * link-power backends (`--link-power`, power/link_power.hpp) and search
 * strategies (`search=`, search/driver.hpp).
 *
 * Grammar: a non-empty name, optionally followed by ':' and a
 * comma-separated list of `key=value` items, each with a non-empty key.
 * A command line is a spec whose name is the binary and whose items are
 * its `key=value`, `--key value` and `--key=value` tokens.  A key may
 * appear once.  Values are read through the typed getters below, which
 * share one set of rules on both surfaces: the whole value must parse,
 * in decimal, with no leading '+' or whitespace; numbers are finite (a
 * number read without bounds leaves that to its owner's validate());
 * integers fit their field and their [lo, hi]; counts are non-negative;
 * booleans are 1/0, true/false, yes/no or on/off in any case.  Every
 * getter range-checks before a value is narrowed, and a refused value
 * raises a ConfigError that names its source (the spec string, the
 * binary, or the DVSNET_* variable a count fell back to), the key, the
 * rule and the value.
 *
 * A Registry maps names to builders and rejects unknown names and keys
 * up front, listing what *is* registered, with messages that name the
 * registry's kind: "unknown workload 'x' (registered: ...)",
 * "workload 'cmp': unknown key 'k' (accepted: ...)", "(takes no keys)".
 * A binary checks its command line's keys with the same words.
 */

#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/fatal.hpp"

namespace dvsnet
{

/** The largest count: INT64_MAX, so every echo of one stays a JSON
 *  integer. */
inline constexpr std::uint64_t kMaxCount =
    std::numeric_limits<std::int64_t>::max();

/** A parsed `<name>[:key=val,...]` spec string or command line. */
struct Spec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    /** True for a command line: messages name the binary rather than
     *  quoting a spec string. */
    bool commandLine = false;

    /** @throws ConfigError on a malformed spec (empty name, an item
     *  without '=', an empty key, an empty item, a repeated key). */
    static Spec parse(const std::string &text);

    /**
     * A command line: the name is argv[0]'s basename, the params are
     * the `key=value`, `--key value` and `--key=value` tokens after it,
     * in order.  @throws ConfigError on any other token, a trailing
     * `--key` without a value, or a repeated key.
     */
    static Spec fromArgs(int argc, char **argv);

    /** Canonical `<name>[:key=val,...]` rendering. */
    std::string toString() const;

    /** Value for `key`, or nullptr when absent. */
    const std::string *find(const std::string &key) const;

    // Typed getters: `def` when `key` is absent; otherwise the value,
    // or a ConfigError naming the source, the key, the rule and the
    // value.

    /** The value as given. */
    std::string text(const std::string &key, const std::string &def) const;

    /** A finite decimal number in [lo, hi]. */
    double number(const std::string &key, double def, double lo,
                  double hi) const;

    /**
     * A decimal number with no range check: NaN and infinities parse.
     * Only for fields whose owner's validate() rejects them by name
     * (TwoLevelParams, CmpParams).
     */
    double number(const std::string &key, double def) const;

    /** A decimal integer in [lo, hi], by default the range of `Int`. */
    template <typename Int>
    Int integer(const std::string &key, Int def,
                Int lo = std::numeric_limits<Int>::min(),
                Int hi = std::numeric_limits<Int>::max()) const;

    /** A count in [lo, hi]: decimal digits only, at most kMaxCount. */
    std::uint64_t count(const std::string &key, std::uint64_t def,
                        std::uint64_t lo = 0,
                        std::uint64_t hi = kMaxCount) const;

    /**
     * count() that falls back, when `key` is absent, to the environment
     * variable DVSNET_<KEY> (so DVSNET_CYCLES=500000 scales every
     * bench's fidelity at once), then to `def`.  A refused value from
     * the environment names the variable.
     */
    std::uint64_t countEnv(const std::string &key, std::uint64_t def,
                           std::uint64_t lo = 0,
                           std::uint64_t hi = kMaxCount) const;

    /** 1/0, true/false, yes/no or on/off, in any case. */
    bool boolean(const std::string &key, bool def) const;

    /**
     * One problem per key outside `keys`: "<who>: unknown key 'k'
     * (accepted: a, b)", or "(takes no keys)" when `keys` is empty.
     */
    std::vector<std::string>
    unknownKeys(const std::string &who,
                const std::vector<std::string> &keys) const;

    /** Throw the first of unknownKeys() for a key outside `keys`,
     *  naming this spec's source: a binary refuses a key it does not
     *  read, so a typo is an error rather than a silent no-op. */
    void rejectUnknownKeys(const std::vector<std::string> &keys) const;

    /** Throw the getters' ConfigError for a value of `key` that breaks
     *  a caller's own `rule` ("must be in [1, 64]"). */
    [[noreturn]] void reject(const std::string &key,
                             const std::string &rule) const;
};

template <typename Int>
Int
Spec::integer(const std::string &key, Int def, Int lo, Int hi) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    Int out{};
    const char *end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, out);
    if (ec != std::errc{} || ptr != end || out < lo || out > hi) {
        reject(key,
               detail::concat("must be an integer in [", +lo, ", ", +hi, "]"));
    }
    return out;
}

namespace detail
{

/** `items` joined with ", ", as registry messages list names and keys. */
std::string joinList(const std::vector<std::string> &items);

} // namespace detail

/** Named builders of `Product` from a Spec and a `Context`. */
template <typename Product, typename Context>
class Registry
{
  public:
    using Builder = std::function<Product(const Spec &, const Context &)>;

    /** @param kind what the registry holds, for its messages
     *  ("workload", "link-power backend"). */
    explicit Registry(std::string kind) : kind_(std::move(kind)) {}

    /**
     * Register `name`.  `keys` is the exhaustive list of spec keys the
     * builder reads; validate() rejects any other.  Re-registering a
     * name replaces the entry (tests use this).
     */
    void
    add(const std::string &name, std::string description,
        std::vector<std::string> keys, Builder builder)
    {
        DVSNET_ASSERT(!name.empty() && builder, "bad registration");
        Entry entry{name, std::move(description), std::move(keys),
                    std::move(builder)};
        for (auto &existing : entries_) {
            if (existing.name == name) {
                existing = std::move(entry);
                return;
            }
        }
        entries_.push_back(std::move(entry));
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const auto &entry : entries_)
            out.push_back(entry.name);
        std::sort(out.begin(), out.end());
        return out;
    }

    /** One-line description of a registered name ("" if unknown). */
    std::string
    description(const std::string &name) const
    {
        const Entry *entry = lookup(name);
        return entry != nullptr ? entry->description : std::string();
    }

    /**
     * Problems with `spec`: an unknown name (listing the registered
     * ones) or unknown keys (Spec::unknownKeys, listing the accepted
     * ones).  Value errors surface later, from build().
     */
    std::vector<std::string>
    validate(const Spec &spec) const
    {
        const Entry *entry = lookup(spec.name);
        if (entry == nullptr) {
            return {detail::concat("unknown ", kind_, " '", spec.name,
                                   "' (registered: ",
                                   detail::joinList(names()), ")")};
        }
        return spec.unknownKeys(kind_ + " '" + spec.name + "'",
                                entry->keys);
    }

    /** Validate `spec` and run its builder.  @throws ConfigError on an
     *  invalid spec or a bad value. */
    Product
    build(const Spec &spec, const Context &context) const
    {
        const auto problems = validate(spec);
        if (!problems.empty()) {
            throw ConfigError(
                joinProblems("invalid " + kind_ + " spec", problems));
        }
        return lookup(spec.name)->builder(spec, context);
    }

  private:
    struct Entry
    {
        std::string name;
        std::string description;
        std::vector<std::string> keys;
        Builder builder;
    };

    const Entry *
    lookup(const std::string &name) const
    {
        for (const auto &entry : entries_) {
            if (entry.name == name)
                return &entry;
        }
        return nullptr;
    }

    std::string kind_;
    std::vector<Entry> entries_;
};

} // namespace dvsnet
