#include "search/cache.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

#include "common/fatal.hpp"
#include "network/metrics.hpp"
#include "search/driver.hpp"

namespace dvsnet::search
{

Json
canonicalJson(const Json &value)
{
    switch (value.type()) {
    case Json::Type::Array: {
        Json out = Json::array();
        for (std::size_t i = 0; i < value.size(); ++i)
            out.push(canonicalJson(value.at(i)));
        return out;
    }
    case Json::Type::Object: {
        std::vector<std::pair<std::string, const Json *>> members;
        members.reserve(value.items().size());
        for (const auto &[key, member] : value.items())
            members.emplace_back(key, &member);
        std::sort(members.begin(), members.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        Json out = Json::object();
        for (const auto &[key, member] : members)
            out[key] = canonicalJson(*member);
        return out;
    }
    default:
        return value;
    }
}

std::string
hashKey(const std::string &text)
{
    // FNV-1a, 64-bit: stable across platforms and good enough for a
    // cache key space of a few million evaluations.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
evalKey(const network::ExperimentSpec &spec, double rate,
        std::uint64_t seed)
{
    Json key = Json::object();
    key["config"] = canonicalJson(network::toJson(spec));
    key["rate"] = Json(rate);
    key["seed"] = Json(std::to_string(seed));
    return hashKey(canonicalJson(key).dump());
}

Json
EvalRecord::toJson() const
{
    Json j = Json::object();
    j["key"] = Json(key);
    j["rung"] = Json(static_cast<std::uint64_t>(rung));
    j["seed"] = Json(std::to_string(seed));
    j["rate"] = Json(rate);
    j["warmup_cycles"] = Json(static_cast<std::uint64_t>(warmup));
    j["measure_cycles"] = Json(static_cast<std::uint64_t>(measure));
    j["params"] = params;
    j["results"] = network::toJson(results);
    return j;
}

namespace
{

/** A decimal seed string: digits only, any 64-bit value. */
std::uint64_t
parseSeed(const std::string &text)
{
    std::uint64_t seed = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, seed);
    if (text.empty() || ec != std::errc() || ptr != end) {
        throw ConfigError(detail::concat(
            "journal record field 'seed' must be a decimal unsigned "
            "64-bit integer, got '",
            text, "'"));
    }
    return seed;
}

} // namespace

EvalRecord
EvalRecord::fromJson(const Json &j)
{
    if (!j.isObject())
        throw ConfigError("journal record must be a JSON object");
    constexpr const char *what = "journal record";
    EvalRecord r;
    r.key = jsonString(j, "key", what);
    r.rung = jsonCount(j, "rung", what);
    r.seed = parseSeed(jsonString(j, "seed", what));
    r.rate = jsonNumber(j, "rate", what);
    r.warmup = jsonCount(j, "warmup_cycles", what);
    r.measure = jsonCount(j, "measure_cycles", what);
    // Checked now: a cache hit carries the echo into the front, whose
    // table reads it back as a Candidate.
    r.params = jsonMember(j, "params", what);
    Candidate::fromJson(r.params);
    r.results = network::runResultsFromJson(jsonMember(j, "results", what));
    return r;
}

std::size_t
ResultCache::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw ConfigError(detail::concat("cannot open journal '", path,
                                         "' for warm cache"));
    }
    std::size_t loaded = 0;
    bool headerSeen = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Json record;
        try {
            record = Json::parse(line);
        } catch (const std::exception &) {
            // A torn line is the expected shape of a killed run's tail;
            // everything before it is valid, so stop loading here.
            break;
        }
        if (!record.isObject())
            continue;  // foreign line
        if (const Json *schema = record.find("schema")) {
            const std::string id =
                schema->isString() ? schema->asString() : schema->dump();
            if (id != kSearchJournalSchema) {
                throw ConfigError(detail::concat(
                    "journal '", path, "' has schema '", id,
                    "', expected '", kSearchJournalSchema,
                    "'; its evaluations cannot be reused"));
            }
            headerSeen = true;
            continue;
        }
        if (!record.find("key"))
            continue;  // foreign line
        if (!headerSeen) {
            throw ConfigError(detail::concat(
                "journal '", path,
                "' has records before any schema header, expected a '",
                kSearchJournalSchema, "' header"));
        }
        try {
            insert(EvalRecord::fromJson(record));
        } catch (const std::exception &) {
            break;  // structurally torn record: treat as truncated tail
        }
        ++loaded;
    }
    return loaded;
}

const EvalRecord *
ResultCache::find(const std::string &key) const
{
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

void
ResultCache::insert(EvalRecord record)
{
    records_[record.key] = std::move(record);
}

JournalWriter::JournalWriter(const std::string &path, Json searchEcho)
    : path_(path), out_(path, std::ios::trunc)
{
    if (!out_) {
        throw ConfigError(detail::concat(
            "cannot open journal path '", path, "' for writing"));
    }
    Json header = Json::object();
    header["schema"] = Json(kSearchJournalSchema);
    header["search"] = std::move(searchEcho);
    out_ << canonicalJson(header).dump() << "\n";
    out_.flush();
}

void
JournalWriter::append(const EvalRecord &record)
{
    if (!out_) {
        throw ConfigError(detail::concat("journal '", path_,
                                         "' is no longer writable"));
    }
    out_ << record.toJson().dump() << "\n";
    out_.flush();
}

} // namespace dvsnet::search
