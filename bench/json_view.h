// Minimal JSON document model shared by the JSON-consuming tools
// (bench_json_check, acs-bench-diff). Covers the full JSON grammar in
// ~150 lines so the repo needs no third-party JSON dependency; values are
// held as a std::variant tree and numbers as double (every integer the
// bench schema emits fits a double exactly or is quoted as hex).
//
// Header-only by design: both consumers are single-file tools and the
// parser is small enough that a dedicated library target would be noise.
#pragma once

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace acs::bench::json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      data = nullptr;

  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(data);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(data);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(data);
  }
  [[nodiscard]] double number() const { return std::get<double>(data); }
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(data);
  }
  [[nodiscard]] const Array* array() const {
    const auto* p = std::get_if<std::shared_ptr<Array>>(&data);
    return p ? p->get() : nullptr;
  }
  [[nodiscard]] const Object* object() const {
    const auto* p = std::get_if<std::shared_ptr<Object>>(&data);
    return p ? p->get() : nullptr;
  }
};

/// Strict recursive-descent parser. parse() throws std::runtime_error
/// (with the byte offset) on any malformed input, including trailing
/// characters after the document.
class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value{parse_string()};
    if (consume_literal("true")) return Value{true};
    if (consume_literal("false")) return Value{false};
    if (consume_literal("null")) return Value{nullptr};
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    auto object = std::make_shared<Object>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value{object};
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      (*object)[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value{object};
    }
  }

  Value parse_array() {
    expect('[');
    auto array = std::make_shared<Array>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value{array};
    }
    while (true) {
      array->push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value{array};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
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
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              fail("bad \\u escape");
            }
          }
          // Validation only: keep the escape verbatim rather than decoding.
          out += "\\u" + text_.substr(pos_, 4);
          pos_ += 4;
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // printf("%.17g") renders a corrupted double as a bare nan/inf token,
    // which strict JSON rejects outright. Accept the tokens here so the
    // consuming tools can *diagnose* the poisoned leaf (path and all)
    // instead of dying with a generic parse error (see bench/diff.h
    // first_nonfinite_leaf and the acs-bench-diff exit-2 contract).
    const bool negative = pos_ != start;
    if (consume_literal("nan")) {
      return Value{std::numeric_limits<double>::quiet_NaN()};
    }
    if (consume_literal("inf")) {
      consume_literal("inity");  // strtod-style long form
      const double inf = std::numeric_limits<double>::infinity();
      return Value{negative ? -inf : inf};
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      std::size_t used = 0;
      const double parsed = std::stod(text_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) throw std::invalid_argument("partial");
      return Value{parsed};
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

/// nullptr when `key` is absent.
inline const Value* find(const Object& object, const std::string& key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

/// The parser accepts printf-style nan/inf tokens so tools can diagnose
/// them; a validated artifact must not contain any. Returns the dotted
/// path (below `path`) of the first non-finite numeric leaf, or empty.
inline std::string find_nonfinite(const Value& value,
                                  const std::string& path = "") {
  if (value.is_number() && !std::isfinite(value.number())) return path;
  if (const Object* object = value.object()) {
    for (const auto& [key, child] : *object) {
      std::string bad =
          find_nonfinite(child, path.empty() ? key : path + "." + key);
      if (!bad.empty()) return bad;
    }
  }
  if (const Array* array = value.array()) {
    for (std::size_t i = 0; i < array->size(); ++i) {
      std::string bad = find_nonfinite(
          (*array)[i], path + "[" + std::to_string(i) + "]");
      if (!bad.empty()) return bad;
    }
  }
  return {};
}

}  // namespace acs::bench::json
