/**
 * @file
 * Spec strings: the one grammar and the one registry behind every
 * `<name>[:key=val,...]` string the simulator accepts — workloads
 * (`--workload`, workload/factory.hpp), link-power backends
 * (`--link-power`, power/link_power.hpp) and search strategies
 * (`search=`, search/driver.hpp).
 *
 * Grammar: a non-empty name, optionally followed by ':' and a
 * comma-separated list of `key=value` items, each with a non-empty key.
 * Values are read through the typed getters below, which share one set
 * of rules: the whole value must parse, in decimal, with no leading '+'
 * or whitespace; numbers are finite (a number read without bounds
 * leaves that to its owner's validate()); integers fit their field;
 * counts are non-negative.  Spec strings come from outside the program
 * (command-line flags and `key=value` arguments), so every getter
 * range-checks before a value is narrowed.
 *
 * A Registry maps names to builders and rejects unknown names and keys
 * up front, listing what *is* registered, with messages that name the
 * registry's kind: "unknown workload 'x' (registered: ...)",
 * "workload 'cmp': unknown key 'k' (valid: ...)", "(takes no keys)".
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

/** A parsed `<name>[:key=val,...]` spec string. */
struct Spec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    /** @throws ConfigError on a malformed spec (empty name, an item
     *  without '=', an empty key, an empty item). */
    static Spec parse(const std::string &text);

    /** Canonical `<name>[:key=val,...]` rendering. */
    std::string toString() const;

    /** Value for `key`, or nullptr when absent. */
    const std::string *find(const std::string &key) const;

    // Typed getters: `def` when `key` is absent; otherwise the value,
    // or a ConfigError naming the spec, the key and the value.

    /** A finite decimal number in [lo, hi]. */
    double number(const std::string &key, double def, double lo,
                  double hi) const;

    /**
     * A decimal number with no range check: NaN and infinities parse.
     * Only for fields whose owner's validate() rejects them by name
     * (TwoLevelParams, CmpParams).
     */
    double number(const std::string &key, double def) const;

    /** A decimal integer within the range of `Int`. */
    template <typename Int>
    Int integer(const std::string &key, Int def) const;

    /** A count: decimal digits only, at most INT64_MAX (read through
     *  dvsnet::parseCount, like the CLI's counts). */
    std::uint64_t count(const std::string &key, std::uint64_t def) const;

    /** `true`/`1` or `false`/`0`. */
    bool boolean(const std::string &key, bool def) const;

    /** Throw the getters' ConfigError for a value of `key` that breaks
     *  a caller's own `rule` ("must be in [1, 64]"). */
    [[noreturn]] void reject(const std::string &key,
                             const std::string &rule) const;
};

template <typename Int>
Int
Spec::integer(const std::string &key, Int def) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    Int out{};
    const char *end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, out);
    if (ec != std::errc{} || ptr != end) {
        reject(key, detail::concat(
                        "must be an integer in [",
                        +std::numeric_limits<Int>::min(), ", ",
                        +std::numeric_limits<Int>::max(), "]"));
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
     * ones) or unknown keys (listing the valid ones).  Value errors
     * surface later, from build().
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
        std::vector<std::string> problems;
        for (const auto &param : spec.params) {
            const auto &keys = entry->keys;
            if (std::find(keys.begin(), keys.end(), param.first) ==
                keys.end()) {
                problems.push_back(detail::concat(
                    kind_, " '", spec.name, "': unknown key '",
                    param.first, "' (",
                    keys.empty() ? "takes no keys"
                                 : "valid: " + detail::joinList(keys),
                    ")"));
            }
        }
        return problems;
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
