#include "common/spec.hpp"

#include <cmath>

#include "common/config.hpp"

namespace dvsnet
{

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
    const std::string *value = find(key);
    throw ConfigError(detail::concat(
        "spec '", toString(), "': key '", key, "' ", rule,
        value != nullptr ? ", got '" + *value + "'" : std::string()));
}

double
Spec::number(const std::string &key, double def) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    double out = 0.0;
    const char *end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, out);
    if (ec != std::errc{} || ptr != end)
        reject(key, "must be a number");
    return out;
}

double
Spec::number(const std::string &key, double def, double lo,
             double hi) const
{
    if (find(key) == nullptr)
        return def;
    const double out = number(key, def);
    if (!(std::isfinite(out) && out >= lo && out <= hi)) {
        reject(key, std::isinf(hi)
                          ? detail::concat("must be a finite number >= ",
                                           lo)
                          : detail::concat("must be a finite number in [",
                                           lo, ", ", hi, "]"));
    }
    return out;
}

std::uint64_t
Spec::count(const std::string &key, std::uint64_t def) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    if (const auto parsed = parseCount(*value))
        return *parsed;
    reject(key, "must be a non-negative integer (at most 2^63 - 1)");
}

bool
Spec::boolean(const std::string &key, bool def) const
{
    const std::string *value = find(key);
    if (value == nullptr)
        return def;
    if (*value == "true" || *value == "1")
        return true;
    if (*value == "false" || *value == "0")
        return false;
    reject(key, "must be true/false or 1/0");
}

} // namespace dvsnet
