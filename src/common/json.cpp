#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/fatal.hpp"

namespace dvsnet
{

Json::Json(std::uint64_t v) : type_(Type::Int)
{
    DVSNET_ASSERT(v <= static_cast<std::uint64_t>(INT64_MAX),
                  "JSON integer overflow: ", v);
    int_ = static_cast<std::int64_t>(v);
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    DVSNET_ASSERT(type_ == Type::Bool, "JSON value is not a bool");
    return bool_;
}

std::int64_t
Json::asInt() const
{
    DVSNET_ASSERT(type_ == Type::Int, "JSON value is not an integer");
    return int_;
}

double
Json::asDouble() const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    DVSNET_ASSERT(type_ == Type::Double, "JSON value is not a number");
    return double_;
}

const std::string &
Json::asString() const
{
    DVSNET_ASSERT(type_ == Type::String, "JSON value is not a string");
    return string_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    DVSNET_ASSERT(type_ == Type::Array, "JSON value is not an array");
    DVSNET_ASSERT(i < array_.size(), "JSON array index ", i,
                  " out of range (size ", array_.size(), ")");
    return array_[i];
}

void
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    DVSNET_ASSERT(type_ == Type::Array, "push on a non-array JSON value");
    array_.push_back(std::move(v));
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    DVSNET_ASSERT(type_ == Type::Object,
                  "member access on a non-object JSON value");
    for (auto &member : object_) {
        if (member.first == key)
            return member.second;
    }
    object_.emplace_back(key, Json());
    return object_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const std::vector<std::pair<std::string, Json>> &
Json::items() const
{
    static const std::vector<std::pair<std::string, Json>> kEmpty;
    return type_ == Type::Object ? object_ : kEmpty;
}

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
    // Keep doubles recognizable as doubles on re-parse.
    if (out.find_first_of(".eE", out.size() - (res.ptr - buf)) ==
        std::string::npos) {
        out += ".0";
    }
}

void
appendNewlineIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out += std::to_string(int_);
        break;
      case Type::Double:
        appendDouble(out, double_);
        break;
      case Type::String:
        appendEscaped(out, string_);
        break;
      case Type::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i != 0)
                out += ',';
            if (indent >= 0)
                appendNewlineIndent(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            appendNewlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i != 0)
                out += ',';
            if (indent >= 0)
                appendNewlineIndent(out, indent, depth + 1);
            appendEscaped(out, object_[i].first);
            out += indent >= 0 ? ": " : ":";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            appendNewlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent JSON parser over a complete in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return value;
    }

  private:
    static constexpr int kMaxDepth = 200;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw ConfigError(detail::concat("JSON parse error at offset ",
                                         pos_, ": ", what));
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(detail::concat("expected '", c, "', got '", peek(), "'"));
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Json
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        skipWhitespace();
        switch (peek()) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return Json(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json();
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    Json
    parseObject(int depth)
    {
        expect('{');
        Json obj = Json::object();
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWhitespace();
            const std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj[key] = parseValue(depth + 1);
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    parseArray(int depth)
    {
        expect('[');
        Json arr = Json::array();
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue(depth + 1));
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': appendUnicodeEscape(out); break;
              default: fail("invalid escape character");
            }
        }
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        const unsigned cp = parseHex4();
        // Encode the BMP code point as UTF-8 (surrogate pairs are not
        // recombined — artifacts only ever contain ASCII).
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    unsigned
    parseHex4()
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("unterminated \\u escape");
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return value;
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool isDouble = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isDouble = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
            fail("invalid number");
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (!isDouble) {
            std::int64_t v = 0;
            const auto res = std::from_chars(first, last, v);
            if (res.ec == std::errc() && res.ptr == last)
                return Json(v);
            // Out-of-range integer: fall through to double.
        }
        double d = 0.0;
        const auto res = std::from_chars(first, last, d);
        if (res.ec != std::errc() || res.ptr != last)
            fail("invalid number");
        return Json(d);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

const Json &
jsonMember(const Json &object, const char *key, const char *what)
{
    const Json *v = object.find(key);
    if (!v) {
        throw ConfigError(
            detail::concat(what, " missing field '", key, "'"));
    }
    return *v;
}

namespace
{

[[noreturn]] void
badMember(const Json &value, const char *key, const char *what,
          const char *expected)
{
    throw ConfigError(detail::concat(what, " field '", key, "' must be ",
                                     expected, ", got ", value.dump()));
}

} // namespace

double
jsonNumber(const Json &object, const char *key, const char *what)
{
    const Json &v = jsonMember(object, key, what);
    if (!v.isNumber())
        badMember(v, key, what, "a number");
    return v.asDouble();
}

std::uint64_t
jsonCount(const Json &object, const char *key, const char *what)
{
    const Json &v = jsonMember(object, key, what);
    if (v.type() != Json::Type::Int || v.asInt() < 0)
        badMember(v, key, what, "a non-negative integer");
    return static_cast<std::uint64_t>(v.asInt());
}

const std::string &
jsonString(const Json &object, const char *key, const char *what)
{
    const Json &v = jsonMember(object, key, what);
    if (!v.isString())
        badMember(v, key, what, "a string");
    return v.asString();
}

} // namespace dvsnet
