/// \file json.hpp
/// \brief A minimal streaming JSON writer and a small DOM reader (no
///        external dependencies).
///
/// The writer produces compact, valid JSON for the library's
/// machine-readable outputs (analysis results, experiment rows). Writer
/// calls are validated at runtime: mismatched begin/end or values in the
/// wrong position throw, so malformed output cannot be produced silently.
///
/// The reader (JsonValue / parse_json) covers standard JSON - objects,
/// arrays, strings with escapes, numbers, booleans, null - which is what
/// the golden-front regression tests and the bench baseline diffs
/// consume. By the writer's convention infinities are encoded as the
/// strings "inf"/"-inf"; JsonValue::as_metric() decodes them back.

#pragma once

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace adtp {

/// Renders a *finite* double so that strtod/stod recovers the exact same
/// value, sign of zero included: integers below 1e15 print as their
/// digits ("90", "-0"), everything else as the shortest round-trip form
/// of std::to_chars ("0.1", "1e-04"). Shared by the JSON writer and the
/// text and ADTool XML exporters so their round-trip guarantees cannot
/// drift apart. Infinities/NaN are the caller's job (each format has its
/// own encoding for those).
[[nodiscard]] std::string format_double_exact(double v);

class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// The finished document; throws unless all containers were closed and
  /// exactly one top-level value was written.
  [[nodiscard]] std::string str() const;

 private:
  enum class Frame : std::uint8_t { Object, Array };

  void before_value();
  void raw(std::string_view text) { out_ += text; }
  static void append_quoted(std::string& out, std::string_view s);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
  bool done_ = false;
};

/// A parsed JSON document node. Accessors validate the type at runtime
/// and throw Error on mismatch, so tests fail loudly on malformed golden
/// files instead of reading garbage.
class JsonValue {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  /// A metric value: a JSON number, or the writer's "inf"/"-inf" string
  /// encoding of the infinities.
  [[nodiscard]] double as_metric() const;

  /// Array access.
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] std::size_t size() const;

  /// Object access; members keep document order.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document; throws ParseError (with a line number) on
/// malformed input and Error on trailing content.
[[nodiscard]] JsonValue parse_json(const std::string& text);

/// Reads and parses a .json file; throws Error if it cannot be read.
[[nodiscard]] JsonValue load_json_file(const std::string& path);

}  // namespace adtp
