/**
 * @file
 * Minimal JSON value type — writer and parser, no third-party
 * dependency.
 *
 * The observability layer serializes run artifacts (RunResults,
 * ExperimentSpec echoes, per-channel energy breakdowns, bench sweep
 * series) through this type; the bench smoke tests and the CI schema
 * diff parse them back.  Scope is deliberately small: the seven JSON
 * types, insertion-ordered objects (artifacts diff cleanly), and
 * round-trip-exact number formatting.  It is not a general-purpose
 * JSON library — no comments, no NaN/Infinity extensions (non-finite
 * doubles serialize as null), no streaming.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dvsnet
{

/** One JSON value: null, bool, integer, double, string, array, object. */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(std::nullptr_t) : Json() {}
    Json(bool v) : type_(Type::Bool), bool_(v) {}
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(std::int64_t v) : type_(Type::Int), int_(v) {}
    Json(std::uint64_t v);
    Json(double v) : type_(Type::Double), double_(v) {}
    Json(const char *v) : type_(Type::String), string_(v) {}
    Json(std::string v) : type_(Type::String), string_(std::move(v)) {}

    /** An empty array (distinct from null). */
    static Json array();

    /** An empty object (distinct from null). */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed reads; panic when the value holds a different type. */
    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;  ///< Int values widen
    const std::string &asString() const;

    /** Array/object element count (0 for scalars). */
    std::size_t size() const;

    /** Array element `i`; panics when not an array or out of range. */
    const Json &at(std::size_t i) const;

    /** Append to an array (converts a null value into an array). */
    void push(Json v);

    /**
     * Object member access, inserting a null member when absent
     * (converts a null value into an object).  Insertion order is
     * preserved in dump().
     */
    Json &operator[](const std::string &key);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &items() const;

    /**
     * Serialize.  `indent < 0` emits compact one-line JSON; `indent >= 0`
     * pretty-prints with that many spaces per nesting level.  Doubles
     * round-trip exactly (shortest representation); non-finite doubles
     * become null.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse a complete JSON document (one value, trailing whitespace
     * allowed).  @throws ConfigError with position info on malformed
     * input.
     */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/**
 * Checked member reads for loaders of files from outside the program.
 * Each throws ConfigError naming `what` and `key` when `object` lacks
 * the member or it holds another kind of value, where the typed reads
 * above would panic.
 */
const Json &jsonMember(const Json &object, const char *key,
                       const char *what);

/** An integer or fractional number. */
double jsonNumber(const Json &object, const char *key, const char *what);

/** A non-negative integer: a negative one is refused, never wrapped. */
std::uint64_t jsonCount(const Json &object, const char *key,
                        const char *what);

const std::string &jsonString(const Json &object, const char *key,
                              const char *what);

} // namespace dvsnet
