#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace adtp {

namespace {

/// Room for any int64 and any shortest-round-trip double
/// ("-2.2250738585072014e-308").
constexpr std::size_t kNumberChars = 32;

/// Writes format_double_exact(v) into [first, first + kNumberChars) and
/// returns the end of the written text.
char* write_double_exact(char* first, double v) {
  char* const last = first + kNumberChars;
  // Integral values below 1e15 print as plain integers ("90", "-0"): the
  // shortest fixed form of such a double is exactly its digits.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_chars(first, last, v, std::chars_format::fixed).ptr;
  }
  return std::to_chars(first, last, v).ptr;
}

}  // namespace

void JsonWriter::append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t plain = 0;  // start of the run not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (ch != '"' && ch != '\\' && static_cast<unsigned char>(ch) >= 0x20) {
      continue;
    }
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (ch) {
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
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        out += buf;
      }
    }
  }
  out.append(s, plain);
  out += '"';
}

void JsonWriter::before_value() {
  if (done_) {
    throw Error("JsonWriter: document already complete");
  }
  if (stack_.empty()) {
    return;  // top-level value
  }
  if (stack_.back() == Frame::Object) {
    if (!key_pending_) {
      throw Error("JsonWriter: object members need a key() first");
    }
    key_pending_ = false;
    return;
  }
  if (has_items_.back()) raw(",");
  has_items_.back() = true;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (done_ || stack_.empty() || stack_.back() != Frame::Object) {
    throw Error("JsonWriter: key() outside an object");
  }
  if (key_pending_) {
    throw Error("JsonWriter: key() twice without a value");
  }
  if (has_items_.back()) raw(",");
  has_items_.back() = true;
  append_quoted(out_, name);
  raw(":");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  raw("{");
  stack_.push_back(Frame::Object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::Object || key_pending_) {
    throw Error("JsonWriter: unbalanced end_object()");
  }
  raw("}");
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  raw("[");
  stack_.push_back(Frame::Array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::Array) {
    throw Error("JsonWriter: unbalanced end_array()");
  }
  raw("]");
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  append_quoted(out_, v);
  if (stack_.empty()) done_ = true;
  return *this;
}

std::string format_double_exact(double v) {
  char buf[kNumberChars];
  return std::string(buf, write_double_exact(buf, v));
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (std::isnan(v)) {
    raw("null");  // JSON has no NaN
  } else if (std::isinf(v)) {
    raw(v > 0 ? "\"inf\"" : "\"-inf\"");  // JSON has no infinities
  } else {
    char buf[kNumberChars];
    out_.append(buf, write_double_exact(buf, v));
  }
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  char buf[kNumberChars];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  char buf[kNumberChars];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  raw(v ? "true" : "false");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  raw("null");
  if (stack_.empty()) done_ = true;
  return *this;
}

std::string JsonWriter::str() const {
  if (!done_ || !stack_.empty()) {
    throw Error("JsonWriter: document incomplete");
  }
  return out_;
}

// ---- reader ---------------------------------------------------------------

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw Error("json: value is not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::Number) throw Error("json: value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String) throw Error("json: value is not a string");
  return string_;
}

double JsonValue::as_metric() const {
  if (type_ == Type::Number) return number_;
  if (type_ == Type::String) {
    if (string_ == "inf") return std::numeric_limits<double>::infinity();
    if (string_ == "-inf") return -std::numeric_limits<double>::infinity();
  }
  throw Error("json: value is not a metric (number or \"inf\"/\"-inf\")");
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::Array) throw Error("json: value is not an array");
  return items_;
}

std::size_t JsonValue::size() const { return items().size(); }

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::Object) throw Error("json: value is not an object");
  return members_;
}

bool JsonValue::has(const std::string& key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return value;
  }
  throw Error("json: object has no member '" + key + "'");
}

/// Recursive-descent parser over the full document string.
class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : in_(input) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != in_.size()) fail("trailing content after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < in_.size(); ++i) {
      if (in_[i] == '\n') ++line;
    }
    throw ParseError(line, "json: " + what);
  }

  void skip_ws() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= in_.size()) fail("unexpected end of input");
    return in_[pos_];
  }

  void expect(char ch) {
    if (pos_ >= in_.size() || in_[pos_] != ch) {
      fail(std::string("expected '") + ch + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::strlen(literal);
    if (in_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  /// Containers deeper than this fail with ParseError instead of
  /// overflowing the stack (each level costs two recursion frames).
  static constexpr int kMaxDepth = 1000;

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxDepth) {
        fail("nesting exceeds " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.type_ = JsonValue::Type::String;
      v.string_ = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.type_ = JsonValue::Type::Bool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.type_ = JsonValue::Type::Bool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or escape in one piece.
      std::size_t run = pos_;
      while (run < in_.size() && in_[run] != '"' && in_[run] != '\\') ++run;
      out.append(in_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= in_.size()) fail("unterminated string");
      const char c = in_[pos_++];
      if (c == '"') return out;
      if (pos_ >= in_.size()) fail("unterminated escape");
      const char esc = in_[pos_++];
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
          if (pos_ + 4 > in_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by this library's documents).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() &&
           ((in_[pos_] >= '0' && in_[pos_] <= '9') || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E' || in_[pos_] == '+' ||
            in_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = in_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    JsonValue v;
    v.type_ = JsonValue::Type::Number;
    v.number_ = value;
    return v;
  }

  const std::string& in_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace adtp
