// Minimal recursive-descent JSON parser (header-only, no dependencies).
//
// The read-side counterpart of common/json.hpp, used by the golden-file
// regression tests to load bench --json output back in and compare it with
// tolerance. Accepts exactly the subset the repo's writer emits (RFC 8259
// minus \uXXXX escapes beyond the control-character form the writer
// produces); malformed input trips TC_CHECK with a byte offset, and so does
// nesting deeper than JsonParser::kMaxDepth (the parser recurses once per
// level, so an unbounded chain of '[' would overflow the stack).
#pragma once

#include <cctype>
#include <charconv>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace tc {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// A parsed JSON document node. Accessors TC_CHECK the type so tests fail
/// with a message instead of a variant exception.
class JsonValue {
 public:
  JsonValue() = default;
  explicit JsonValue(std::nullptr_t) {}
  explicit JsonValue(bool b) : v_(b) {}
  explicit JsonValue(double d) : v_(d) {}
  explicit JsonValue(std::string s) : v_(std::move(s)) {}
  explicit JsonValue(JsonArray a) : v_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o) : v_(std::make_shared<JsonObject>(std::move(o))) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v_);
  }

  [[nodiscard]] bool as_bool() const {
    TC_CHECK(std::holds_alternative<bool>(v_), "JSON value is not a bool");
    return std::get<bool>(v_);
  }
  [[nodiscard]] double as_number() const {
    TC_CHECK(is_number(), "JSON value is not a number");
    return std::get<double>(v_);
  }
  [[nodiscard]] const std::string& as_string() const {
    TC_CHECK(is_string(), "JSON value is not a string");
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const JsonArray& as_array() const {
    TC_CHECK(is_array(), "JSON value is not an array");
    return *std::get<std::shared_ptr<JsonArray>>(v_);
  }
  [[nodiscard]] const JsonObject& as_object() const {
    TC_CHECK(is_object(), "JSON value is not an object");
    return *std::get<std::shared_ptr<JsonObject>>(v_);
  }

  /// Object member access; missing keys are an error, not a default.
  [[nodiscard]] const JsonValue& at(std::string_view key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    TC_CHECK(it != obj.end(), "JSON object has no key '" + std::string(key) + "'");
    return it->second;
  }
  [[nodiscard]] bool has(std::string_view key) const {
    const auto& obj = as_object();
    return obj.find(key) != obj.end();
  }

 private:
  std::variant<std::monostate, bool, double, std::string, std::shared_ptr<JsonArray>,
               std::shared_ptr<JsonObject>>
      v_;
};

namespace detail {

class JsonParser {
 public:
  /// Deepest array/object nesting accepted. The repo's documents nest a few
  /// levels; the bound only has to keep recursion far from the stack limit.
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    auto v = parse_value();
    skip_ws();
    TC_CHECK(pos_ == text_.size(), err("trailing content after JSON document"));
    return v;
  }

 private:
  [[nodiscard]] std::string err(const std::string& what) const {
    return what + " at byte " + std::to_string(pos_);
  }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    TC_CHECK(pos_ < text_.size(), err("unexpected end of JSON"));
    return text_[pos_];
  }
  void expect(char c) {
    TC_CHECK(peek() == c, err(std::string("expected '") + c + "'"));
    ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool consume_word(std::string_view w) {
    skip_ws();
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      TC_CHECK(depth_ < kMaxDepth,
               err("JSON nesting deeper than " + std::to_string(kMaxDepth) + " levels"));
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parse_string());
    if (consume_word("true")) return JsonValue(true);
    if (consume_word("false")) return JsonValue(false);
    if (consume_word("null")) return JsonValue(nullptr);
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    if (!consume('}')) {
      do {
        std::string key = parse_string();
        expect(':');
        obj.emplace(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    }
    return JsonValue(std::move(obj));
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    if (!consume(']')) {
      do {
        arr.push_back(parse_value());
      } while (consume(','));
      expect(']');
    }
    return JsonValue(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      TC_CHECK(pos_ < text_.size(), err("unterminated JSON string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      TC_CHECK(pos_ < text_.size(), err("unterminated JSON escape"));
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          TC_CHECK(pos_ + 4 <= text_.size(), err("truncated \\u escape"));
          unsigned code = 0;
          const auto r = std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          TC_CHECK(r.ec == std::errc{} && r.ptr == text_.data() + pos_ + 4,
                   err("bad \\u escape"));
          TC_CHECK(code < 0x80, err("non-ASCII \\u escape unsupported"));
          pos_ += 4;
          out.push_back(static_cast<char>(code));
          break;
        }
        default: TC_CHECK(false, err("unknown JSON escape"));
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                                   text_[pos_] == '.' || text_[pos_] == 'e' ||
                                   text_[pos_] == 'E' || text_[pos_] == '+' ||
                                   text_[pos_] == '-')) {
      ++pos_;
    }
    TC_CHECK(pos_ > start, err("expected a JSON value"));
    double d = 0.0;
    const auto r = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    TC_CHECK(r.ec == std::errc{} && r.ptr == text_.data() + pos_, err("malformed JSON number"));
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace detail

/// Parses a complete JSON document; TC_CHECKs on malformed input.
[[nodiscard]] inline JsonValue json_parse(std::string_view text) {
  return detail::JsonParser(text).parse_document();
}

/// Serializes a parsed node back through the streaming writer (value
/// position). Together with json_parse this round-trips every document the
/// repo's writers emit — the persistent tuning-cache file relies on it.
/// Object keys come out in JsonObject's sorted order, so dump(parse(x)) is a
/// canonical form: stable under repeated round-trips.
inline void json_write(JsonWriter& j, const JsonValue& v) {
  if (v.is_null()) {
    j.null();
  } else if (v.is_bool()) {
    j.value(v.as_bool());
  } else if (v.is_number()) {
    j.value(v.as_number());
  } else if (v.is_string()) {
    j.value(std::string_view(v.as_string()));
  } else if (v.is_array()) {
    j.begin_array();
    for (const JsonValue& e : v.as_array()) json_write(j, e);
    j.end_array();
  } else {
    j.begin_object();
    for (const auto& [key, val] : v.as_object()) {
      j.key(key);
      json_write(j, val);
    }
    j.end_object();
  }
}

/// json_write into a string (one complete document, no trailing newline).
[[nodiscard]] inline std::string json_dump(const JsonValue& v) {
  std::ostringstream os;
  JsonWriter j(os);
  json_write(j, v);
  return os.str();
}

}  // namespace tc
