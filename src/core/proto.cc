#include "core/proto.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "core/log.hh"

namespace orion::core::proto {

namespace {

[[noreturn]] void
bad(const std::string& what)
{
    throw ProtoError("bad_request", "orion proto: " + what);
}

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value(0);
        skipWs();
        if (pos_ != text_.size())
            bad("trailing bytes after JSON document");
        return v;
    }

  private:
    static constexpr int kMaxDepth = 32;

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            bad("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            bad(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    literal(const char* word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    value(int depth)
    {
        if (depth > kMaxDepth)
            bad("nesting too deep");
        skipWs();
        const char c = peek();
        JsonValue v;
        if (c == '{') {
            v.kind = JsonValue::Kind::Object;
            ++pos_;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                skipWs();
                std::string key = string();
                skipWs();
                expect(':');
                v.members.emplace_back(std::move(key),
                                       value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            v.kind = JsonValue::Kind::Array;
            ++pos_;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.items.push_back(value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.text = string();
            return v;
        }
        if (literal("true")) {
            v.kind = JsonValue::Kind::Boolean;
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.kind = JsonValue::Kind::Boolean;
            v.boolean = false;
            return v;
        }
        if (literal("null")) {
            v.kind = JsonValue::Kind::Null;
            return v;
        }
        return number();
    }

    int
    hexDigit()
    {
        const char c = peek();
        ++pos_;
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        bad("bad \\u escape");
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                bad("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                bad("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                bad("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i)
                    cp = cp * 16 +
                         static_cast<unsigned>(hexDigit());
                // BMP code point to UTF-8 (surrogates rejected: the
                // protocol never needs astral-plane text).
                if (cp >= 0xD800 && cp <= 0xDFFF)
                    bad("surrogate \\u escape unsupported");
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 |
                                             ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                bad("unknown escape");
            }
        }
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_]))
                || text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        const std::string s(text_.substr(start, pos_ - start));
        if (s.empty() || s == "-")
            bad("expected a JSON value");
        char* end = nullptr;
        const double d = std::strtod(s.c_str(), &end);
        if (end != s.c_str() + s.size() || !std::isfinite(d))
            bad("malformed number '" + s + "'");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** Required positive-integer member (job ids). */
std::uint64_t
jobField(const JsonValue& root)
{
    const JsonValue* j = root.find("job");
    if (j == nullptr || j->kind != JsonValue::Kind::Number)
        bad("missing numeric 'job' field");
    const double d = j->number;
    if (d < 1.0 || d != std::floor(d) || d > 9e15)
        bad("'job' must be a positive integer");
    return static_cast<std::uint64_t>(d);
}

} // namespace

const JsonValue*
JsonValue::find(const std::string& key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto& [k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

std::string
jsonString(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += log::jsonEscape(s);
    out += '"';
    return out;
}

Request
parseRequest(const std::string& line)
{
    const JsonValue root = parseJson(line);
    if (root.kind != JsonValue::Kind::Object)
        bad("request must be a JSON object");
    const JsonValue* schema = root.find("schema");
    if (schema == nullptr ||
        schema->kind != JsonValue::Kind::String ||
        schema->text != kSchema) {
        bad(std::string("missing or unsupported schema (want \"") +
            kSchema + "\")");
    }
    const JsonValue* verb = root.find("verb");
    if (verb == nullptr || verb->kind != JsonValue::Kind::String)
        bad("missing string 'verb' field");

    Request r;
    r.verb = verb->text;
    if (r.verb == "submit") {
        if (const JsonValue* args = root.find("args")) {
            if (args->kind != JsonValue::Kind::Array)
                bad("'args' must be an array of strings");
            for (const JsonValue& a : args->items) {
                if (a.kind != JsonValue::Kind::String)
                    bad("'args' must be an array of strings");
                r.args.push_back(a.text);
            }
        }
        if (const JsonValue* rates = root.find("rates")) {
            if (rates->kind != JsonValue::Kind::String)
                bad("'rates' must be a FIRST:LAST:COUNT string");
            r.rates = rates->text;
        }
        if (const JsonValue* t = root.find("timeout")) {
            if (t->kind != JsonValue::Kind::Number ||
                !(t->number >= 0.0)) {
                bad("'timeout' must be a non-negative number");
            }
            r.timeoutSeconds = t->number;
        }
    } else if (r.verb == "status" || r.verb == "result" ||
               r.verb == "cancel") {
        r.job = jobField(root);
    } else if (r.verb != "stats") {
        bad("unknown verb '" + r.verb + "'");
    }
    return r;
}

std::string
errorReply(const std::string& code, const std::string& message)
{
    std::string out = "{\"schema\":";
    out += jsonString(kSchema);
    out += ",\"ok\":false,\"error\":";
    out += jsonString(code);
    out += ",\"message\":";
    out += jsonString(message);
    out += "}";
    return out;
}

std::string
expiredReply(std::uint64_t job, std::size_t retained)
{
    return errorReply("expired",
                      "job " + std::to_string(job) +
                          " was retired past the " +
                          std::to_string(retained) +
                          " newest settled jobs; resubmit it to be "
                          "served from the cache");
}

} // namespace orion::core::proto

