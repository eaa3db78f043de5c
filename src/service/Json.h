//===-- service/Json.h - Minimal JSON parsing and rendering -----*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON value type for the serve protocol: one
/// request or response per line, parsed and rendered without any external
/// dependency. The subset is full JSON minus extensions: objects, arrays,
/// strings (with \uXXXX escapes, encoded to UTF-8), numbers, booleans,
/// null. Object keys keep insertion order on render; duplicate keys keep
/// the last value on lookup (like every mainstream parser).
///
/// Numbers remember their source token so 64-bit integers round-trip
/// exactly (`asU64` reparses the token rather than going through the
/// double), which the protocol needs for fuzz seeds.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SERVICE_JSON_H
#define COMMCSL_SERVICE_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace commcsl {

/// One JSON value.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool B);
  static JsonValue number(double N);
  static JsonValue number(uint64_t N);
  /// Number carrying its exact source token (parser internal; the token
  /// must be a valid JSON number rendering of \p N).
  static JsonValue numberFromToken(double N, std::string Token);
  static JsonValue string(std::string S);
  static JsonValue array();
  static JsonValue object();

  /// The deepest nesting of arrays and objects `parse` accepts. The parser
  /// and the value's destructor recurse once per level, so an unbounded
  /// depth would let one request line exhaust a serve thread's stack.
  static constexpr unsigned MaxNesting = 256;

  /// Parses one complete JSON document; trailing non-whitespace is an
  /// error, and so is nesting deeper than MaxNesting. On failure returns
  /// nullopt and, if \p Error is non-null, a one-line description with the
  /// byte offset.
  static std::optional<JsonValue> parse(const std::string &Text,
                                        std::string *Error = nullptr);

  bool isObject() const { return K == Kind::Object; }
  bool isString() const { return K == Kind::String; }

  /// Object member by key (last duplicate wins), or null when absent or
  /// not an object.
  const JsonValue *find(const std::string &Key) const;

  /// Typed member accessors with defaults (absent or wrong-typed members
  /// yield the default).
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;
  bool getBool(const std::string &Key, bool Default = false) const;
  uint64_t getU64(const std::string &Key, uint64_t Default = 0) const;

  bool asBool() const { return B; }
  double asDouble() const { return Num; }
  /// The number as an exact unsigned 64-bit integer when its source token
  /// is one, else nullopt.
  std::optional<uint64_t> asU64() const;
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &items() const { return Arr; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Obj;
  }

  /// Appends an object member (no duplicate check; callers render fresh
  /// objects).
  JsonValue &set(std::string Key, JsonValue V);
  /// Appends an array element.
  JsonValue &push(JsonValue V);
  /// Appends a member whose value is pre-rendered JSON text, spliced
  /// verbatim into the output (e.g. the metrics registry's own export).
  JsonValue &setRaw(std::string Key, std::string RawJson);

  /// Renders compact single-line JSON (no spaces, members in insertion
  /// order).
  std::string dump() const;

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string NumText; ///< source token; preserves integer fidelity
  std::string Str;     ///< String payload, or Raw spliced text
  bool Raw = false;    ///< Str is pre-rendered JSON, not a string literal
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;

  void dumpInto(std::string &Out) const;
};

} // namespace commcsl

#endif // COMMCSL_SERVICE_JSON_H
