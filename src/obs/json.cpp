/**
 * @file
 * Strict JSON reader and string quoter.
 */

#include "json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

namespace speclens {
namespace obs {

std::string
jsonQuote(std::string_view text)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (char c : text) {
        unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(kHex[u >> 4]);
            out.push_back(kHex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const JsonMember &member : members_)
        if (member.key == key)
            return &member.value;
    return nullptr;
}

const JsonValue &
JsonValue::operator[](std::string_view key) const
{
    static const JsonValue kAbsent;
    const JsonValue *value = find(key);
    return value ? *value : kAbsent;
}

bool
JsonValue::getBool(bool &out) const
{
    if (kind_ != Kind::Bool)
        return false;
    out = flag_;
    return true;
}

bool
JsonValue::getU64(std::uint64_t &out) const
{
    if (kind_ != Kind::Number)
        return false;
    const char *end = text_.data() + text_.size();
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(text_.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false; // sign, fraction, exponent or overflow
    out = value;
    return true;
}

bool
JsonValue::getDouble(double &out) const
{
    if (kind_ != Kind::Number)
        return false;
    const char *end = text_.data() + text_.size();
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

bool
JsonValue::getString(std::string &out) const
{
    if (kind_ != Kind::String)
        return false;
    out = text_;
    return true;
}

/** Recursive-descent reader over one document. */
class JsonReader
{
  public:
    explicit JsonReader(std::string_view text) : text_(text) {}

    bool
    document(JsonValue &out)
    {
        skipSpace();
        if (!value(out, 0))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kJsonMaxDepth || ++values_ > kJsonMaxValues ||
            pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object(out, depth);
          case '[': return array(out, depth);
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return string(out.text_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.flag_ = true;
            return literal("true");
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            return literal("false");
          case 'n': return literal("null");
          default:
            out.kind_ = JsonValue::Kind::Number;
            return number(out.text_);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        out.kind_ = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (eat('}'))
            return true;
        do {
            skipSpace();
            JsonMember &member = out.members_.emplace_back();
            if (!string(member.key))
                return false;
            skipSpace();
            if (!eat(':'))
                return false;
            skipSpace();
            if (!value(member.value, depth + 1))
                return false;
            skipSpace();
        } while (eat(','));
        return eat('}') && uniqueKeys(out.members_);
    }

    bool
    array(JsonValue &out, int depth)
    {
        out.kind_ = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (eat(']'))
            return true;
        do {
            skipSpace();
            if (!value(out.items_.emplace_back(), depth + 1))
                return false;
            skipSpace();
        } while (eat(','));
        return eat(']');
    }

    static bool
    uniqueKeys(const std::vector<JsonMember> &members)
    {
        if (members.size() < 2)
            return true;
        std::vector<std::string_view> keys;
        keys.reserve(members.size());
        for (const JsonMember &member : members)
            keys.push_back(member.key);
        std::sort(keys.begin(), keys.end());
        return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            // Copy the run of plain bytes up to the next quote,
            // backslash or control character in one append.
            std::size_t run = pos_;
            while (run < text_.size() && text_[run] != '"' &&
                   text_[run] != '\\' &&
                   static_cast<unsigned char>(text_[run]) >= 0x20)
                ++run;
            out.append(text_, pos_, run - pos_);
            pos_ = run;
            if (pos_ >= text_.size())
                return false; // unterminated
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\' || pos_ >= text_.size())
                return false; // raw control character
            switch (text_[pos_++]) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u':
                if (!unicodeEscape(out))
                    return false;
                break;
              default: return false;
            }
        }
        return false; // unterminated
    }

    /** The code point after a `\u` (and its low half, if a pair). */
    bool
    unicodeEscape(std::string &out)
    {
        std::uint32_t code = 0;
        if (!hex4(code) || (code >= 0xdc00 && code <= 0xdfff))
            return false; // lone low surrogate
        if (code >= 0xd800 && code <= 0xdbff) {
            std::uint32_t low = 0;
            if (!eat('\\') || !eat('u') || !hex4(low) || low < 0xdc00 ||
                low > 0xdfff)
                return false; // high surrogate without its pair
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        appendUtf8(out, code);
        return true;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t code)
    {
        auto byte = [&out](std::uint32_t b) {
            out.push_back(static_cast<char>(b));
        };
        if (code < 0x80) {
            byte(code);
        } else if (code < 0x800) {
            byte(0xc0 | (code >> 6));
            byte(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            byte(0xe0 | (code >> 12));
            byte(0x80 | ((code >> 6) & 0x3f));
            byte(0x80 | (code & 0x3f));
        } else {
            byte(0xf0 | (code >> 18));
            byte(0x80 | ((code >> 12) & 0x3f));
            byte(0x80 | ((code >> 6) & 0x3f));
            byte(0x80 | (code & 0x3f));
        }
    }

    bool
    hex4(std::uint32_t &out)
    {
        if (text_.size() - pos_ < 4)
            return false;
        const char *begin = text_.data() + pos_;
        auto [ptr, ec] = std::from_chars(begin, begin + 4, out, 16);
        if (ec != std::errc() || ptr != begin + 4)
            return false;
        pos_ += 4;
        return true;
    }

    /** RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number(std::string &out)
    {
        std::size_t start = pos_;
        eat('-');
        if (eat('0')) {
            // A leading zero stands alone.
        } else if (digits() == 0) {
            return false;
        }
        if (eat('.') && digits() == 0)
            return false;
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (digits() == 0)
                return false;
        }
        out.assign(text_, start, pos_ - start);
        return true;
    }

    std::size_t
    digits()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ - start;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    eat(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t values_ = 0;
};

bool
parseJson(std::string_view text, JsonValue &out)
{
    out = JsonValue();
    if (JsonReader(text).document(out))
        return true;
    out = JsonValue(); // never hand out a half-built tree
    return false;
}

bool
validateJson(std::string_view text)
{
    JsonValue value;
    return parseJson(text, value);
}

} // namespace obs
} // namespace speclens
