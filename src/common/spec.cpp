#include "common/spec.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace dvsnet
{

namespace
{

/**
 * The one wording of a refused value, on every surface:
 * "<source>: key '<key>' <rule>, got '<value>'" (no "got" part when the
 * key is absent and a caller refuses its default).
 */
[[noreturn]] void
rejectValue(const std::string &source, const std::string &key,
            const std::string *value, const std::string &rule)
{
    throw ConfigError(detail::concat(
        source, ": key '", key, "' ", rule,
        value != nullptr ? ", got '" + *value + "'" : std::string()));
}

/** What messages name as `spec`'s source: the binary for a command
 *  line, the quoted spec string otherwise. */
std::string
sourceOf(const Spec &spec)
{
    return spec.commandLine ? spec.name : "spec '" + spec.toString() + "'";
}

/** `text` as a count in [lo, hi], or rejectValue() from `source`. */
std::uint64_t
countIn(const std::string &source, const std::string &key,
        const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    DVSNET_ASSERT(lo <= hi && hi <= kMaxCount, "bad count range");
    // from_chars takes no sign for an unsigned type, no leading
    // whitespace and no base prefix: "-1" fails instead of wrapping to
    // 2^64 - 1, "0x10" stops at the 'x' and "010" is ten.
    std::uint64_t out = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec == std::errc{} && ptr == end && out >= lo && out <= hi)
        return out;
    rejectValue(source, key, &text,
                lo == 0 && hi == kMaxCount
                    ? std::string("must be a non-negative integer (at most "
                                  "2^63 - 1)")
                    : detail::concat("must be an integer in [", lo, ", ",
                                     hi, "]"));
}

/** Whether `text` is, in whole, a decimal number (NaN and infinities
 *  included); stores it in `out`. */
bool
parseNumber(const std::string &text, double &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

/** Refuse a key given twice, naming its second value. */
void
rejectRepeatedKeys(const Spec &spec)
{
    for (std::size_t i = 1; i < spec.params.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (spec.params[j].first == spec.params[i].first) {
                rejectValue(sourceOf(spec), spec.params[i].first,
                            &spec.params[i].second,
                            "must be given at most once");
            }
        }
    }
}

} // namespace

std::string
detail::joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += ", ";
        out += item;
    }
    return out;
}

Spec
Spec::parse(const std::string &text)
{
    Spec spec;
    const std::size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    if (spec.name.empty())
        throw ConfigError(detail::concat("spec '", text, "': empty name"));

    if (colon == std::string::npos)
        return spec;
    std::size_t pos = colon + 1;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0) {
            throw ConfigError(detail::concat(
                "spec '", text, "': expected key=value, got '", item, "'"));
        }
        spec.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        pos = comma + 1;
    }
    rejectRepeatedKeys(spec);
    return spec;
}

Spec
Spec::fromArgs(int argc, char **argv)
{
    Spec spec;
    spec.commandLine = true;
    if (argc > 0) {
        const std::string path = argv[0];
        spec.name = path.substr(path.find_last_of('/') + 1);
    }
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) == 0) {
            // GNU-style flag: `--key value` or `--key=value` (so every
            // binary accepts e.g. `--threads 4 --seed 7` uniformly).
            tok.erase(0, 2);
            if (tok.find('=') == std::string::npos) {
                if (i + 1 >= argc) {
                    throw ConfigError(detail::concat(
                        spec.name, ": flag '--", tok, "' expects a value"));
                }
                tok += '=';
                tok += argv[++i];
            }
        }
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw ConfigError(detail::concat(
                spec.name, ": expected key=value or --key value argument, "
                           "got '",
                tok, "'"));
        }
        spec.params.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
    rejectRepeatedKeys(spec);
    return spec;
}

std::string
Spec::toString() const
{
    std::string out = name;
    for (std::size_t i = 0; i < params.size(); ++i) {
        out += i == 0 ? ':' : ',';
        out += params[i].first;
        out += '=';
        out += params[i].second;
    }
    return out;
}

const std::string *
Spec::find(const std::string &key) const
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Spec::reject(const std::string &key, const std::string &rule) const
{
    rejectValue(sourceOf(*this), key, find(key), rule);
}

std::string
Spec::text(const std::string &key, const std::string &def) const
{
    const std::string *value = find(key);
    return value != nullptr ? *value : def;
}

double
Spec::number(const std::string &key, double def) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    double out = 0.0;
    if (!parseNumber(*value, out))
        reject(key, "must be a number");
    return out;
}

double
Spec::number(const std::string &key, double def, double lo,
             double hi) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    double out = 0.0;
    if (!parseNumber(*value, out) ||
        !(std::isfinite(out) && out >= lo && out <= hi)) {
        reject(key, std::isinf(hi)
                          ? detail::concat("must be a finite number >= ",
                                           lo)
                          : detail::concat("must be a finite number in [",
                                           lo, ", ", hi, "]"));
    }
    return out;
}

std::uint64_t
Spec::count(const std::string &key, std::uint64_t def, std::uint64_t lo,
            std::uint64_t hi) const
{
    const std::string *value = find(key);
    return value != nullptr ? countIn(sourceOf(*this), key, *value, lo, hi)
                            : def;
}

std::uint64_t
Spec::countEnv(const std::string &key, std::uint64_t def, std::uint64_t lo,
               std::uint64_t hi) const
{
    if (find(key) != nullptr)
        return count(key, def, lo, hi);
    std::string var = "DVSNET_";
    for (const char c : key)
        var += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    const char *env = std::getenv(var.c_str());
    return env != nullptr ? countIn("environment " + var, key, env, lo, hi)
                          : def;
}

bool
Spec::boolean(const std::string &key, bool def) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    std::string s = *value;
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    reject(key, "must be a boolean (1/0, true/false, yes/no or on/off)");
}

std::vector<std::string>
Spec::unknownKeys(const std::string &who,
                  const std::vector<std::string> &keys) const
{
    std::vector<std::string> problems;
    for (const auto &param : params) {
        if (std::find(keys.begin(), keys.end(), param.first) != keys.end())
            continue;
        problems.push_back(detail::concat(
            who, ": unknown key '", param.first, "' (",
            keys.empty() ? "takes no keys"
                         : "accepted: " + detail::joinList(keys),
            ")"));
    }
    return problems;
}

void
Spec::rejectUnknownKeys(const std::vector<std::string> &keys) const
{
    const auto problems = unknownKeys(sourceOf(*this), keys);
    if (!problems.empty())
        throw ConfigError(problems.front());
}

} // namespace dvsnet
