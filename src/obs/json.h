/**
 * @file
 * The one JSON reader and the one JSON string quoter.
 *
 * Every JSON document SpecLens reads — serve request and response
 * frames, BENCH_<pr>.json trajectory artifacts, run manifests — goes
 * through parseJson(), and every data string it writes into JSON is
 * escaped by jsonQuote().  The reader is strict RFC 8259:
 *
 *  - exactly one value, surrounded only by JSON whitespace;
 *  - no raw control characters inside strings, no unknown escapes;
 *  - `\u` escapes decode to UTF-8, surrogate pairs included; a lone
 *    surrogate is refused;
 *  - numbers follow the RFC grammar (no leading zeros, no `+`, no
 *    bare `.`), and their literal text is kept so integers stay
 *    exact;
 *  - duplicate object keys are refused (last-wins would let
 *    `{"op": "stats", "op": "shutdown"}` mean whatever a reader
 *    picked);
 *  - nesting deeper than kJsonMaxDepth, or more than kJsonMaxValues
 *    values in one document, is refused (the RFC 8259 section 9
 *    limits: a tree costs ~90 bytes per value, so a 16 MiB serve frame
 *    of `[0,0,...]` would otherwise cost over a gigabyte).
 *
 * Bytes >= 0x80 pass through unchecked, so a string round-trips
 * through jsonQuote() and parseJson() byte for byte whatever it holds.
 */

#ifndef SPECLENS_OBS_JSON_H
#define SPECLENS_OBS_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace speclens {
namespace obs {

/** Containers nested deeper than this are refused. */
inline constexpr int kJsonMaxDepth = 64;

/**
 * Documents with more values than this are refused; every scalar,
 * array and object counts.  The largest document SpecLens writes, a
 * run manifest with its metric snapshot, holds a few hundred.
 */
inline constexpr std::size_t kJsonMaxValues = 1u << 16;

/**
 * JSON string literal for @p text: quotes, `"` and `\` escaped,
 * control characters as `\u00XX`, every other byte verbatim.
 */
std::string jsonQuote(std::string_view text);

struct JsonMember;

/** One parsed JSON value; objects keep their members in order. */
class JsonValue
{
  public:
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Object member @p key, or nullptr (absent, or not an object). */
    const JsonValue *find(std::string_view key) const;

    /**
     * Object member @p key, or a null value when absent — so nested
     * fields read as `doc["campaign"]["fingerprint"]` without checks
     * at every level.
     */
    const JsonValue &operator[](std::string_view key) const;

    /** The value when it is a boolean. */
    bool getBool(bool &out) const;

    /**
     * The value when it is a non-negative integer literal that fits
     * 64 bits exactly (no sign, fraction or exponent).
     */
    bool getU64(std::uint64_t &out) const;

    /** The value when it is a number within double range. */
    bool getDouble(double &out) const;

    /** The decoded bytes when the value is a string. */
    bool getString(std::string &out) const;

    /** Array elements (empty unless an array). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in document order (empty unless an object). */
    const std::vector<JsonMember> &members() const { return members_; }

  private:
    friend class JsonReader;

    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind_ = Kind::Null;
    bool flag_ = false;
    std::string text_; //!< String bytes, or a number's literal text.
    std::vector<JsonValue> items_;
    std::vector<JsonMember> members_;
};

/** One object member. */
struct JsonMember
{
    std::string key;
    JsonValue value;
};

/**
 * Parse @p text as exactly one JSON value into @p out.  Returns false
 * on any defect, leaving @p out null.
 */
bool parseJson(std::string_view text, JsonValue &out);

/** True when @p text parses (syntax only; no schema checks). */
bool validateJson(std::string_view text);

} // namespace obs
} // namespace speclens

#endif // SPECLENS_OBS_JSON_H
