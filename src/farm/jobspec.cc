#include "farm/jobspec.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "compress/compressor.hh"
#include "compress/encoding.hh"
#include "compress/strategy.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace codecomp::farm {

namespace {

/**
 * A parsed JSON value. The spec grammar only needs objects, arrays,
 * strings, numbers, and booleans; numbers are kept as doubles and
 * narrowed (with integrality and range checks) at interpretation time.
 */
struct JsonValue
{
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[name, value] : object)
            if (name == key)
                return &value;
        return nullptr;
    }
};

const char *
kindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Kind::Null:
        return "null";
      case JsonValue::Kind::Bool:
        return "boolean";
      case JsonValue::Kind::Number:
        return "number";
      case JsonValue::Kind::String:
        return "string";
      case JsonValue::Kind::Array:
        return "array";
      case JsonValue::Kind::Object:
        return "object";
    }
    return "?";
}

/** Recursive-descent parser over the spec text; every syntax error is
 *  a catchable fatal naming the byte offset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        CC_FATAL("job spec: ", what, " at byte ", pos_);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
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
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        return parseKeyword();
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue value;
        value.kind = JsonValue::Kind::Object;
        skipSpace();
        if (consume('}'))
            return value;
        for (;;) {
            skipSpace();
            JsonValue key = parseString();
            skipSpace();
            expect(':');
            value.object.emplace_back(std::move(key.string), parseValue());
            skipSpace();
            if (consume(','))
                continue;
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue value;
        value.kind = JsonValue::Kind::Array;
        skipSpace();
        if (consume(']'))
            return value;
        for (;;) {
            value.array.push_back(parseValue());
            skipSpace();
            if (consume(','))
                continue;
            expect(']');
            return value;
        }
    }

    JsonValue
    parseString()
    {
        if (peek() != '"')
            fail("expected a string");
        ++pos_;
        JsonValue value;
        value.kind = JsonValue::Kind::String;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return value;
            if (c != '\\') {
                value.string += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                value.string += esc;
                break;
              case 'n':
                value.string += '\n';
                break;
              case 'r':
                value.string += '\r';
                break;
              case 't':
                value.string += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                if (code > 0x7f)
                    fail("non-ASCII \\u escape unsupported in job specs");
                value.string += static_cast<char>(code);
                break;
              }
              default:
                fail(std::string("unknown escape '\\") + esc + "'");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        std::string digits = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double parsed = std::strtod(digits.c_str(), &end);
        if (end != digits.c_str() + digits.size() || digits.empty())
            fail("malformed number '" + digits + "'");
        JsonValue value;
        value.kind = JsonValue::Kind::Number;
        value.number = parsed;
        return value;
    }

    JsonValue
    parseKeyword()
    {
        JsonValue value;
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            value.kind = JsonValue::Kind::Bool;
            value.boolean = true;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            value.kind = JsonValue::Kind::Bool;
        } else if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else {
            fail("unrecognized token");
        }
        return value;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

// ---- spec interpretation ----

[[noreturn]] void
jobFail(size_t index, const std::string &what)
{
    CC_FATAL("job spec: job ", index, ": ", what);
}

const JsonValue &
require(const JsonValue &job, size_t index, const std::string &key,
        JsonValue::Kind kind)
{
    const JsonValue *value = job.find(key);
    if (!value)
        jobFail(index, "missing required field \"" + key + "\"");
    if (value->kind != kind)
        jobFail(index, "field \"" + key + "\" must be a " +
                           kindName(kind) + ", got " +
                           kindName(value->kind));
    return *value;
}

/** Integer field in [min, max], or @p fallback when absent. */
long
intField(const JsonValue &job, size_t index, const std::string &key,
         long fallback, long min, long max)
{
    const JsonValue *value = job.find(key);
    if (!value)
        return fallback;
    if (value->kind != JsonValue::Kind::Number ||
        value->number != std::floor(value->number))
        jobFail(index, "field \"" + key + "\" must be an integer");
    if (value->number < static_cast<double>(min) ||
        value->number > static_cast<double>(max))
        jobFail(index, "field \"" + key + "\" out of range [" +
                           std::to_string(min) + ", " +
                           std::to_string(max) + "]");
    return static_cast<long>(value->number);
}

std::string
stringField(const JsonValue &job, size_t index, const std::string &key,
            const std::string &fallback)
{
    const JsonValue *value = job.find(key);
    if (!value)
        return fallback;
    if (value->kind != JsonValue::Kind::String)
        jobFail(index, "field \"" + key + "\" must be a string");
    return value->string;
}

FarmJob
interpretJob(const JsonValue &spec, size_t index)
{
    static const char *const known[] = {
        "workload", "scale",      "scheme",
        "strategy", "max_entries", "max_len",
        "assumed_codeword_nibbles", "refit_max_rounds",
        "layout",   "repeat",      "id",
        "timeout_ms", "retries",
    };
    for (const auto &[key, value] : spec.object) {
        (void)value;
        bool recognized = false;
        for (const char *name : known)
            recognized = recognized || key == name;
        if (!recognized)
            jobFail(index, "unknown field \"" + key + "\"");
    }

    FarmJob job;
    job.workload =
        require(spec, index, "workload", JsonValue::Kind::String).string;
    job.scale = static_cast<int>(
        intField(spec, index, "scale", 1, 1, 1024));

    std::string scheme = stringField(spec, index, "scheme", "nibble");
    auto parsedScheme = compress::parseSchemeName(scheme);
    if (!parsedScheme)
        jobFail(index, "unknown scheme \"" + scheme + "\" (expected " +
                           compress::schemeCliNames(", ") + ")");
    job.config.scheme = *parsedScheme;

    std::string strategy = stringField(spec, index, "strategy", "greedy");
    auto parsedStrategy = compress::parseStrategyName(strategy);
    if (!parsedStrategy)
        jobFail(index, "unknown strategy \"" + strategy +
                           "\" (expected " +
                           compress::strategyCliNames(", ") + ")");
    job.config.strategy = *parsedStrategy;

    std::string layout = stringField(spec, index, "layout", "linear");
    auto parsedLayout = compress::parseLayoutModeName(layout);
    if (!parsedLayout)
        jobFail(index, "unknown layout \"" + layout +
                           "\" (expected linear or hotcold)");
    job.config.layout = *parsedLayout;

    long maxCodewords =
        compress::schemeParams(job.config.scheme).maxCodewords;
    job.config.maxEntries = static_cast<uint32_t>(intField(
        spec, index, "max_entries", 4680, 1, maxCodewords));
    job.config.maxEntryLen = static_cast<uint32_t>(
        intField(spec, index, "max_len", 4, 1, 64));
    job.config.assumedCodewordNibbles = static_cast<uint32_t>(
        intField(spec, index, "assumed_codeword_nibbles", 0, 0, 8));
    job.config.refitMaxRounds = static_cast<uint32_t>(
        intField(spec, index, "refit_max_rounds", 6, 0, 64));

    // -1 (absent) defers to the farm-level defaults; 0 is an explicit
    // "no deadline" / "no retries". A day-long deadline cap keeps a
    // fat-fingered value from disabling fault detection quietly.
    job.timeoutMs = static_cast<int64_t>(
        intField(spec, index, "timeout_ms", -1, -1, 86400000));
    job.retries = static_cast<int32_t>(
        intField(spec, index, "retries", -1, -1, 100));

    job.id = stringField(spec, index, "id",
                         job.workload + "/" +
                             compress::schemeCliName(job.config.scheme) +
                             "/" +
                             compress::strategyName(job.config.strategy));
    return job;
}

} // namespace

std::string
writeJobSpec(const std::vector<FarmJob> &jobs)
{
    JsonWriter json;
    json.beginObject();
    json.key("jobs");
    json.beginArray();
    for (const FarmJob &job : jobs) {
        json.beginObject();
        json.member("workload", job.workload);
        json.member("scale", job.scale);
        json.member("scheme", compress::schemeCliName(job.config.scheme));
        json.member("strategy",
                    compress::strategyName(job.config.strategy));
        // The pipeline clips maxEntries to the scheme's codeword
        // budget; emit the clipped value so the spec re-parses under
        // the field's scheme-dependent range check.
        json.member("max_entries",
                    std::min(job.config.maxEntries,
                             static_cast<uint32_t>(
                                 compress::schemeParams(job.config.scheme)
                                     .maxCodewords)));
        json.member("max_len", job.config.maxEntryLen);
        json.member("assumed_codeword_nibbles",
                    job.config.assumedCodewordNibbles);
        json.member("refit_max_rounds", job.config.refitMaxRounds);
        if (job.config.layout != compress::LayoutMode::Linear)
            json.member("layout",
                        compress::layoutModeName(job.config.layout));
        if (job.timeoutMs >= 0)
            json.member("timeout_ms", job.timeoutMs);
        if (job.retries >= 0)
            json.member("retries", static_cast<int>(job.retries));
        json.member("id", job.id);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::vector<FarmJob>
parseJobSpec(const std::string &text)
{
    JsonValue root = JsonParser(text).parse();
    if (root.kind != JsonValue::Kind::Object)
        CC_FATAL("job spec: top level must be an object, got ",
                 kindName(root.kind));
    const JsonValue *jobs = root.find("jobs");
    if (!jobs || jobs->kind != JsonValue::Kind::Array)
        CC_FATAL("job spec: missing \"jobs\" array");
    if (jobs->array.empty())
        CC_FATAL("job spec: \"jobs\" array is empty");

    std::vector<FarmJob> queue;
    for (size_t i = 0; i < jobs->array.size(); ++i) {
        const JsonValue &spec = jobs->array[i];
        if (spec.kind != JsonValue::Kind::Object)
            CC_FATAL("job spec: job ", i, ": must be an object, got ",
                     kindName(spec.kind));
        FarmJob job = interpretJob(spec, i);
        long repeat = intField(spec, i, "repeat", 1, 1, 4096);
        for (long copy = 0; copy < repeat; ++copy) {
            FarmJob clone = job;
            if (repeat > 1) {
                clone.id += '#';
                clone.id += std::to_string(copy);
            }
            queue.push_back(std::move(clone));
        }
    }
    return queue;
}

} // namespace codecomp::farm
