// Minimal JSON document model with a writer and a strict parser.
//
// The `X-Etag-Config` header carries a JSON object mapping resource paths to
// ETags (mirroring the paper's Caddy implementation), so both the server
// (encode) and the Service Worker (decode) need a real JSON round trip whose
// byte size we can account against transmission time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace catalyst {

/// A JSON value: null, bool, number (double), string, array or object.
/// Object keys keep deterministic (sorted) order so serialization is stable.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  static Json null() { return Json{}; }
  static Json boolean(bool b);
  static Json number(double n);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_string() const { return type_ == Type::String; }
  bool is_number() const { return type_ == Type::Number; }

  /// Accessors; throw std::logic_error on type mismatch.
  double as_number() const;
  const std::string& as_string() const;
  const std::map<std::string, Json>& as_object() const;

  /// Array append (requires array type).
  void push_back(Json value);

  /// Object set (requires object type).
  void set(std::string key, Json value);

  /// Object lookup; nullptr when absent (requires object type).
  const Json* find(std::string_view key) const;

  /// Compact serialization (no whitespace).
  std::string dump() const;

  /// Strict parse of a complete JSON document; nullopt on any error
  /// (trailing garbage, bad escapes, unterminated containers, ...).
  static std::optional<Json> parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string json_escape(std::string_view s);

}  // namespace catalyst
