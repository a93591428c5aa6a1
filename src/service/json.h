// Minimal JSON value + codec for the gpustld wire protocol.
//
// The protocol (docs/FORMATS.md) carries one JSON object per frame, dumped
// on one line. This codec covers exactly what that needs —
// null/bool/number/string/array/object, strict parsing with a depth limit,
// single-line dumping — with insertion-ordered objects so dumped events
// are deterministic (field order is part of the documented protocol, and
// tests compare whole lines).
//
// No third-party dependency on purpose: the container image pins the
// toolchain, and the protocol surface is small enough that a ~300-line
// recursive-descent parser is cheaper than vendoring one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpustl::service {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : type_(Type::kNumber), num_(v) {}
  // No std::size_t overload: on LP64 it IS std::uint64_t.
  Json(std::int64_t v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), str_(s) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}

  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  /// Object field access. Set keeps insertion order and overwrites an
  /// existing key in place; Find returns null when absent or not an
  /// object (callers chain through optional fields without null checks).
  Json& Set(std::string key, Json value);
  const Json* Find(std::string_view key) const;

  /// Array append.
  Json& Append(Json value);

  const std::vector<Json>& items() const { return arr_; }
  const std::vector<std::pair<std::string, Json>>& fields() const {
    return obj_;
  }

  /// Scalar readers with defaults (wrong type = default, never a throw:
  /// the daemon must answer malformed requests, not die on them).
  std::string AsString(std::string def = "") const {
    return type_ == Type::kString ? str_ : std::move(def);
  }
  double AsDouble(double def = 0.0) const {
    return type_ == Type::kNumber ? num_ : def;
  }
  /// A number outside the int64 range (a peer may send `1e300`) also
  /// reads as `def`: converting it would be undefined behaviour.
  std::int64_t AsInt(std::int64_t def = 0) const {
    // [-2^63, 2^63) is exactly the int64 range; both bounds are doubles.
    const bool in_range = num_ >= -0x1p63 && num_ < 0x1p63;
    return type_ == Type::kNumber && in_range ? static_cast<std::int64_t>(num_)
                                              : def;
  }
  bool AsBool(bool def = false) const {
    return type_ == Type::kBool ? bool_ : def;
  }

  /// Convenience: field lookup + scalar read in one step.
  std::string GetString(std::string_view key, std::string def = "") const;
  double GetDouble(std::string_view key, double def = 0.0) const;
  std::int64_t GetInt(std::string_view key, std::int64_t def = 0) const;
  bool GetBool(std::string_view key, bool def = false) const;

  /// Serializes to a single line (no trailing newline). Integral numbers
  /// print without a decimal point; strings are escaped per RFC 8259.
  std::string Dump() const;

  /// Strict single-document parse. Returns nullopt on any syntax error,
  /// trailing garbage, or nesting deeper than an internal limit; `error`
  /// (nullable) receives a short diagnostic.
  static std::optional<Json> Parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace gpustl::service
