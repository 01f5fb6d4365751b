// Minimal JSON support for machine-readable artifacts: a streaming writer
// and a small document parser.
//
// Benches emit BENCH_*.json files (see docs/PERFORMANCE.md) so the perf
// trajectory of the simulator can be tracked across PRs by scripts instead
// of by scraping stdout tables. The writer handles nesting, commas, and
// string escaping; values are emitted in insertion order. Every bench that
// writes its own BENCH_*.json goes through write_bench_json, so all of them
// share one row shape.
//
// The parser (parse_json) exists for the campaign subsystem: sweep specs
// and resumable run manifests (docs/CAMPAIGN.md) are JSON documents the
// library must read back. It is a strict recursive-descent parser over the
// JSON subset the writer emits (no \uXXXX surrogate pairs beyond Latin-1,
// no exotic number forms) and throws InvariantError with a byte offset on
// malformed input. Object members keep insertion order, so a parse/write
// round trip is byte-stable modulo whitespace.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace congestlb {

class JsonWriter {
 public:
  /// Writes to `os`; the stream must outlive the writer. Emits pretty-printed
  /// JSON with two-space indentation.
  explicit JsonWriter(std::ostream& os);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit the key of the next object member.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }

  /// key(k) followed by value(v).
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  void separate();  ///< comma/newline/indent before a new element
  void indent();
  void write_escaped(std::string_view s);

  std::ostream* os_;
  /// One entry per open container: true once the container has an element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// One row of a BENCH_*.json document. `dims` is the configuration the row
/// was measured under (threads, variant, ...), and
/// scripts/check_bench_regression.py joins a measured row to its baseline
/// row on name + dims. `metrics` is what was measured.
struct BenchRow {
  using Value =
      std::variant<std::string, std::uint64_t, std::int64_t, double, bool>;
  using Fields = std::vector<std::pair<std::string, Value>>;

  std::string name;
  Fields dims;
  Fields metrics;
};

/// Writes {"schema": "clb-bench-v2", "benchmark", "entries": [{name, dims,
/// metrics}...]}; `trailer`, when set, appends further top-level members
/// after the entries (run settings, summary statistics, embedded metrics).
void write_bench_json(std::ostream& os, std::string_view benchmark,
                      const std::vector<BenchRow>& rows,
                      const std::function<void(JsonWriter&)>& trailer = {});

/// A parsed JSON document node. Numbers remember whether their token was
/// integral so u64/i64 round-trip exactly (campaign hashes and seeds do not
/// survive a double round trip).
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; each throws InvariantError on a kind mismatch.
  bool as_bool() const;
  double as_double() const;
  /// The number as an integer. Throws unless the token was integral and in
  /// range (e.g. "1.5" and "1e3" are rejected, "18446744073709551615" is
  /// fine for as_u64).
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<Member>& as_object() const;

  /// Object member lookup (first match); null when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// find() that throws InvariantError when the member is absent.
  const JsonValue& at(std::string_view key) const;

  // Construction helpers for tests and programmatic documents.
  static JsonValue make_null();
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_integer(std::uint64_t v, bool negative = false);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

 private:
  friend JsonValue parse_json(std::string_view);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  /// Set when the number token had no '.', 'e' or 'E': the exact magnitude
  /// lives in int_mag_ with int_negative_ giving the sign.
  bool is_integer_ = false;
  bool int_negative_ = false;
  std::uint64_t int_mag_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parse a complete JSON document (one value plus trailing whitespace).
/// Throws InvariantError with a byte offset on any syntax error.
JsonValue parse_json(std::string_view text);

}  // namespace congestlb
