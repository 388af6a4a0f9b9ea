// Minimal JSON for the serve protocol (serve/proto: one object per line).
//
// The compile server speaks newline-delimited JSON over a Unix-domain
// socket (or stdio), so it needs a parser/writer that round-trips program
// text — including embedded newlines — through one framed line. This is a
// deliberately small implementation: objects, arrays, strings (with the
// standard escapes), doubles/int64s, booleans and null. No comments, no
// NaN/Inf, and \uXXXX escapes outside the BMP-ASCII range are passed
// through byte-wise; the protocol never needs them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace oocc::serve {

/// One JSON value. Numbers keep an integer/double distinction so budgets
/// and counters survive a round trip exactly.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                  // NOLINT
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}            // NOLINT
  Json(int i) : kind_(Kind::kInt), int_(i) {}                     // NOLINT
  Json(std::uint64_t i)                                           // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(i)) {}
  Json(double d) : kind_(Kind::kDouble), double_(d) {}            // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}       // NOLINT

  static Json array();
  static Json object();

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; each throws Error(kRuntimeError) on a kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
  const std::map<std::string, Json>& as_object() const;

  /// Object convenience: member lookup with a typed default. `has` is
  /// false-membership aware (a present null counts as absent).
  bool has(const std::string& key) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  /// Object/array mutation.
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  /// Serializes to a single line (no interior newlines: every control
  /// character in strings is escaped), suitable for the framed protocol.
  std::string dump() const;

  /// Parses exactly one JSON value from `text` (surrounding whitespace
  /// allowed). Throws Error(kParseError) on malformed input or trailing
  /// garbage.
  static Json parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace oocc::serve
