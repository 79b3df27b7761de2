#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
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

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    auto v = lookup(key);
    if (!v)
        return def;
    char *end = nullptr;
    const long long parsed = std::strtoll(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        DVSNET_FATAL("config key '", key, "': '", *v, "' is not an integer");
    return parsed;
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
    // A sign is refused up front: strtoull would silently wrap "-1" to
    // 2^64 - 1.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE ||
        parsed > static_cast<unsigned long long>(INT64_MAX))
        return std::nullopt;
    return parsed;
}

std::uint64_t
Config::getCount(const std::string &key, std::uint64_t def) const
{
    auto v = lookup(key);
    if (!v)
        return def;
    if (const auto parsed = parseCount(*v))
        return *parsed;
    DVSNET_FATAL("config key '", key, "': '", *v,
                 "' is not a non-negative integer");
}

std::uint64_t
Config::getCountEnv(const std::string &key, std::uint64_t def) const
{
    if (has(key))
        return getCount(key, def);
    std::string envKey = "DVSNET_";
    for (char c : key)
        envKey += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (const char *env = std::getenv(envKey.c_str())) {
        if (const auto parsed = parseCount(env))
            return *parsed;
        DVSNET_FATAL("environment ", envKey, "='", env,
                     "' is not a non-negative integer");
    }
    return def;
}

} // namespace dvsnet
