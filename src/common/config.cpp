#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/fatal.hpp"

namespace dvsnet
{

Config
Config::fromArgs(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) == 0) {
            // GNU-style flag: `--key value` or `--key=value` (so every
            // binary accepts e.g. `--threads 4 --seed 7` uniformly).
            tok = tok.substr(2);
            if (tok.find('=') == std::string::npos) {
                if (i + 1 >= argc) {
                    DVSNET_FATAL("flag '--", tok, "' expects a value");
                }
                tok += '=';
                tok += argv[++i];
            }
        }
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            DVSNET_FATAL("expected key=value or --key value argument, "
                         "got '", tok, "'");
        }
        cfg.set(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

void
Config::rejectUnknownKeys(const std::vector<std::string> &accepted,
                          const std::string &who) const
{
    for (const auto &[key, value] : values_) {
        if (std::find(accepted.begin(), accepted.end(), key) !=
            accepted.end()) {
            continue;
        }
        std::string list;
        for (const std::string &name : accepted)
            list += (list.empty() ? "" : ", ") + name;
        throw ConfigError(detail::concat(who, ": unknown key '", key,
                                         "' (accepted: ", list, ")"));
    }
}

std::optional<std::string>
Config::lookup(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    return lookup(key).value_or(def);
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto v = lookup(key);
    if (!v)
        return def;
    char *end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        DVSNET_FATAL("config key '", key, "': '", *v, "' is not a number");
    return parsed;
}

double
Config::getDouble(const std::string &key, double def, double lo,
                  double hi) const
{
    const auto v = lookup(key);
    if (!v)
        return def;
    const double out = getDouble(key, def);
    if (std::isfinite(out) && out >= lo && out <= hi)
        return out;
    DVSNET_FATAL("config key '", key, "': '", *v,
                 "' is not a finite number ",
                 std::isinf(hi) ? detail::concat(">= ", lo)
                                : detail::concat("in [", lo, ", ", hi, "]"));
}

void
Config::rejectInteger(const std::string &key, const std::string &value,
                      const std::string &lo, const std::string &hi)
{
    DVSNET_FATAL("config key '", key, "': '", value,
                 "' is not an integer in [", lo, ", ", hi, "]");
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto v = lookup(key);
    if (!v)
        return def;
    std::string s = *v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    DVSNET_FATAL("config key '", key, "': '", *v, "' is not a boolean");
}

std::optional<std::uint64_t>
parseCount(const std::string &text)
{
    // from_chars takes no sign for an unsigned type, no leading
    // whitespace and no base prefix: "-1" fails instead of wrapping to
    // 2^64 - 1, "0x10" stops at the 'x' and "010" is ten.
    std::uint64_t out = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec != std::errc{} || ptr != end || out > kMaxCount)
        return std::nullopt;
    return out;
}

namespace
{

/** `text` as a count in [lo, hi], or exit naming `what` (the key or
 *  the environment variable). */
std::uint64_t
countIn(const std::string &what, const std::string &text,
        std::uint64_t lo, std::uint64_t hi)
{
    const auto parsed = parseCount(text);
    if (!parsed)
        DVSNET_FATAL(what, "'", text, "' is not a non-negative integer");
    if (*parsed < lo || *parsed > hi) {
        DVSNET_FATAL(what, "'", text, "' is not a count in [", lo, ", ", hi,
                     "]");
    }
    return *parsed;
}

} // namespace

std::uint64_t
Config::getCount(const std::string &key, std::uint64_t def,
                 std::uint64_t lo, std::uint64_t hi) const
{
    const auto v = lookup(key);
    return v ? countIn("config key '" + key + "': ", *v, lo, hi) : def;
}

std::uint64_t
Config::getCountEnv(const std::string &key, std::uint64_t def,
                    std::uint64_t lo, std::uint64_t hi) const
{
    if (has(key))
        return getCount(key, def, lo, hi);
    std::string envKey = "DVSNET_";
    for (char c : key)
        envKey += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (const char *env = std::getenv(envKey.c_str()))
        return countIn("environment " + envKey + "=", env, lo, hi);
    return def;
}

} // namespace dvsnet
