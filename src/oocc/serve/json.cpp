#include "oocc/serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "oocc/util/error.hpp"

namespace oocc::serve {

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool() const {
  OOCC_CHECK(kind_ == Kind::kBool, ErrorCode::kRuntimeError,
             "json: value is not a boolean");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::kDouble) {
    return static_cast<std::int64_t>(double_);
  }
  OOCC_CHECK(kind_ == Kind::kInt, ErrorCode::kRuntimeError,
             "json: value is not a number");
  return int_;
}

double Json::as_double() const {
  if (kind_ == Kind::kInt) {
    return static_cast<double>(int_);
  }
  OOCC_CHECK(kind_ == Kind::kDouble, ErrorCode::kRuntimeError,
             "json: value is not a number");
  return double_;
}

const std::string& Json::as_string() const {
  OOCC_CHECK(kind_ == Kind::kString, ErrorCode::kRuntimeError,
             "json: value is not a string");
  return string_;
}

const std::vector<Json>& Json::as_array() const {
  OOCC_CHECK(kind_ == Kind::kArray, ErrorCode::kRuntimeError,
             "json: value is not an array");
  return array_;
}

const std::map<std::string, Json>& Json::as_object() const {
  OOCC_CHECK(kind_ == Kind::kObject, ErrorCode::kRuntimeError,
             "json: value is not an object");
  return object_;
}

bool Json::has(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return false;
  }
  const auto it = object_.find(key);
  return it != object_.end() && !it->second.is_null();
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  return has(key) ? object_.at(key).as_bool() : fallback;
}

std::int64_t Json::get_int(const std::string& key,
                           std::int64_t fallback) const {
  return has(key) ? object_.at(key).as_int() : fallback;
}

double Json::get_double(const std::string& key, double fallback) const {
  return has(key) ? object_.at(key).as_double() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  return has(key) ? object_.at(key).as_string() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  OOCC_CHECK(kind_ == Kind::kObject || kind_ == Kind::kNull,
             ErrorCode::kRuntimeError, "json: set() on a non-object");
  kind_ = Kind::kObject;
  object_[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  OOCC_CHECK(kind_ == Kind::kArray || kind_ == Kind::kNull,
             ErrorCode::kRuntimeError, "json: push_back() on a non-array");
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Json& j, std::string& out) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      out += "null";
      return;
    case Json::Kind::kBool:
      out += j.as_bool() ? "true" : "false";
      return;
    case Json::Kind::kInt: {
      char buf[32];
      const auto [ptr, ec] =
          std::to_chars(buf, buf + sizeof(buf), j.as_int());
      (void)ec;
      out.append(buf, ptr);
      return;
    }
    case Json::Kind::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", j.as_double());
      out += buf;
      return;
    }
    case Json::Kind::kString:
      dump_string(j.as_string(), out);
      return;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& e : j.as_array()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        dump_value(e, out);
      }
      out.push_back(']');
      return;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : j.as_object()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        dump_string(k, out);
        out.push_back(':');
        dump_value(v, out);
      }
      out.push_back('}');
      return;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    OOCC_CHECK(pos_ == text_.size(), ErrorCode::kParseError,
               "json: trailing characters at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    OOCC_CHECK(pos_ < text_.size(), ErrorCode::kParseError,
               "json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    OOCC_CHECK(peek() == c, ErrorCode::kParseError,
               "json: expected '" << c << "' at offset " << pos_ << ", got '"
                                  << text_[pos_] << "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  // Objects and arrays recurse through parse_value, so capping its depth
  // bounds the parser's stack.
  static constexpr int kMaxNesting = 256;

  Json parse_value() {
    OOCC_CHECK(nesting_ < kMaxNesting, ErrorCode::kParseError,
               "json: nested more than " << kMaxNesting
                                         << " levels deep at offset " << pos_);
    ++nesting_;
    Json v = parse_element();
    --nesting_;
    return v;
  }

  Json parse_element() {
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        OOCC_CHECK(consume_literal("true"), ErrorCode::kParseError,
                   "json: bad literal at offset " << pos_);
        return Json(true);
      case 'f':
        OOCC_CHECK(consume_literal("false"), ErrorCode::kParseError,
                   "json: bad literal at offset " << pos_);
        return Json(false);
      case 'n':
        OOCC_CHECK(consume_literal("null"), ErrorCode::kParseError,
                   "json: bad literal at offset " << pos_);
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      OOCC_CHECK(pos_ < text_.size(), ErrorCode::kParseError,
                 "json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      OOCC_CHECK(pos_ < text_.size(), ErrorCode::kParseError,
                 "json: unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          OOCC_CHECK(pos_ + 4 <= text_.size(), ErrorCode::kParseError,
                     "json: truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              OOCC_THROW(ErrorCode::kParseError,
                         "json: bad hex digit in \\u escape");
            }
          }
          // The protocol only escapes control characters; encode the code
          // point as UTF-8 for completeness.
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
        default:
          OOCC_THROW(ErrorCode::kParseError,
                     "json: unknown escape '\\" << e << "'");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        // '-'/'+' only continue a number inside an exponent; the loop is
        // permissive and the from_chars below is the arbiter.
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    OOCC_CHECK(pos_ > start, ErrorCode::kParseError,
               "json: expected a value at offset " << start);
    const std::string_view tok{text_.data() + start, pos_ - start};
    if (!is_double) {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), v);
      OOCC_CHECK(ec == std::errc() && ptr == tok.data() + tok.size(),
                 ErrorCode::kParseError, "json: bad integer '" << tok << "'");
      return Json(v);
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), d);
    OOCC_CHECK(ec == std::errc() && ptr == tok.data() + tok.size(),
               ErrorCode::kParseError, "json: bad number '" << tok << "'");
    return Json(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int nesting_ = 0;  ///< parse_value calls in progress
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace oocc::serve
