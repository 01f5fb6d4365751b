#include "support/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "support/expect.hpp"

namespace congestlb {

JsonWriter::JsonWriter(std::ostream& os) : os_(&os) {}

void JsonWriter::indent() {
  for (std::size_t i = 0; i < has_element_.size(); ++i) *os_ << "  ";
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // value follows "key": inline
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) *os_ << ',';
    *os_ << '\n';
    indent();
    has_element_.back() = true;
  }
}

void JsonWriter::write_escaped(std::string_view s) {
  *os_ << '"';
  for (char c : s) {
    switch (c) {
      case '"': *os_ << "\\\""; break;
      case '\\': *os_ << "\\\\"; break;
      case '\n': *os_ << "\\n"; break;
      case '\t': *os_ << "\\t"; break;
      case '\r': *os_ << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          *os_ << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          *os_ << c;
        }
    }
  }
  *os_ << '"';
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  *os_ << '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  CLB_EXPECT(!has_element_.empty(), "JsonWriter: unbalanced end_object");
  const bool had = has_element_.back();
  has_element_.pop_back();
  if (had) {
    *os_ << '\n';
    indent();
  }
  *os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  *os_ << '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  CLB_EXPECT(!has_element_.empty(), "JsonWriter: unbalanced end_array");
  const bool had = has_element_.back();
  has_element_.pop_back();
  if (had) {
    *os_ << '\n';
    indent();
  }
  *os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  CLB_EXPECT(!after_key_, "JsonWriter: key after key");
  separate();
  write_escaped(k);
  *os_ << ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  write_escaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  *os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (std::isfinite(v)) {
    const auto flags = os_->flags();
    const auto precision = os_->precision();
    os_->precision(12);
    *os_ << v;
    os_->flags(flags);
    os_->precision(precision);
  } else {
    *os_ << "null";  // JSON has no Inf/NaN
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(int v) {
  return value(static_cast<std::int64_t>(v));
}

// -------------------------------------------------------------- BenchRow --

void write_bench_json(std::ostream& os, std::string_view benchmark,
                      const std::vector<BenchRow>& rows,
                      const std::function<void(JsonWriter&)>& trailer) {
  JsonWriter jw(os);
  const auto fields = [&jw](std::string_view k, const BenchRow::Fields& f) {
    jw.key(k);
    jw.begin_object();
    for (const auto& [name, v] : f) {
      jw.key(name);
      std::visit([&jw](const auto& x) { jw.value(x); }, v);
    }
    jw.end_object();
  };
  jw.begin_object();
  jw.kv("schema", "clb-bench-v2");
  jw.kv("benchmark", benchmark);
  jw.key("entries");
  jw.begin_array();
  for (const BenchRow& r : rows) {
    jw.begin_object();
    jw.kv("name", r.name);
    fields("dims", r.dims);
    fields("metrics", r.metrics);
    jw.end_object();
  }
  jw.end_array();
  if (trailer) trailer(jw);
  jw.end_object();
  os << "\n";
}

// --------------------------------------------------------------- JsonValue --

namespace {

[[noreturn]] void json_fail(std::size_t offset, const std::string& what) {
  throw InvariantError("json parse error at byte " + std::to_string(offset) +
                       ": " + what);
}

/// Recursive-descent parser over a string_view; pos_ is the byte cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) json_fail(pos_, "trailing characters");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 128;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) json_fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      json_fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) json_fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        json_fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        json_fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        json_fail(pos_, "bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') break;
      if (sep != ',') json_fail(pos_ - 1, "expected ',' or '}'");
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') break;
      if (sep != ',') json_fail(pos_ - 1, "expected ',' or ']'");
    }
    return JsonValue::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) json_fail(pos_, "unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        json_fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) json_fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) json_fail(pos_, "short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else json_fail(pos_ - 1, "bad \\u digit");
          }
          // The writer only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 so any well-formed input survives.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: json_fail(pos_ - 1, "bad escape character");
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      json_fail(pos_, "bad number");
    }
    bool integral = true;
    bool overflow = false;
    std::uint64_t mag = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      if (mag > (~0ULL - digit) / 10) overflow = true;
      else mag = mag * 10 + digit;
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        json_fail(pos_, "bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        json_fail(pos_, "bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    const double d = std::strtod(token.c_str(), nullptr);
    if (errno == ERANGE && !integral) json_fail(start, "number out of range");
    if (integral && !overflow) {
      JsonValue v = JsonValue::make_integer(mag, negative);
      return v;
    }
    return JsonValue::make_number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void require_kind(JsonValue::Kind got, JsonValue::Kind want,
                  const char* accessor) {
  if (got != want) {
    throw InvariantError(std::string("JsonValue::") + accessor +
                         ": wrong kind");
  }
}

}  // namespace

bool JsonValue::as_bool() const {
  require_kind(kind_, Kind::kBool, "as_bool");
  return bool_;
}

double JsonValue::as_double() const {
  require_kind(kind_, Kind::kNumber, "as_double");
  if (is_integer_) {
    const double mag = static_cast<double>(int_mag_);
    return int_negative_ ? -mag : mag;
  }
  return num_;
}

std::uint64_t JsonValue::as_u64() const {
  require_kind(kind_, Kind::kNumber, "as_u64");
  CLB_EXPECT(is_integer_ && !int_negative_,
             "JsonValue::as_u64: not a non-negative integer token");
  return int_mag_;
}

std::int64_t JsonValue::as_i64() const {
  require_kind(kind_, Kind::kNumber, "as_i64");
  CLB_EXPECT(is_integer_, "JsonValue::as_i64: not an integer token");
  if (int_negative_) {
    CLB_EXPECT(int_mag_ <= 0x8000000000000000ULL,
               "JsonValue::as_i64: out of range");
    return static_cast<std::int64_t>(~int_mag_ + 1);
  }
  CLB_EXPECT(int_mag_ <= 0x7FFFFFFFFFFFFFFFULL,
             "JsonValue::as_i64: out of range");
  return static_cast<std::int64_t>(int_mag_);
}

const std::string& JsonValue::as_string() const {
  require_kind(kind_, Kind::kString, "as_string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  require_kind(kind_, Kind::kArray, "as_array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object() const {
  require_kind(kind_, Kind::kObject, "as_object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  CLB_EXPECT(v != nullptr,
             "JsonValue::at: missing member '" + std::string(key) + "'");
  return *v;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

JsonValue JsonValue::make_integer(std::uint64_t v, bool negative) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.is_integer_ = true;
  j.int_mag_ = v;
  j.int_negative_ = negative && v != 0;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.items_ = std::move(items);
  return j;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.members_ = std::move(members);
  return j;
}

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace congestlb
