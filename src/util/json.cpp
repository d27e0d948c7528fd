#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/strings.h"

namespace catalyst {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = b;
  return j;
}

Json Json::number(double n) {
  Json j;
  j.type_ = Type::Number;
  j.number_ = n;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::String;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

double Json::as_number() const {
  if (type_ != Type::Number) throw std::logic_error("Json: not a number");
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw std::logic_error("Json: not a string");
  return string_;
}

const std::map<std::string, Json>& Json::as_object() const {
  if (type_ != Type::Object) throw std::logic_error("Json: not an object");
  return object_;
}

void Json::push_back(Json value) {
  if (type_ != Type::Array) throw std::logic_error("Json: not an array");
  array_.push_back(std::move(value));
}

void Json::set(std::string key, Json value) {
  if (type_ != Type::Object) throw std::logic_error("Json: not an object");
  object_[std::move(key)] = std::move(value);
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) throw std::logic_error("Json: not an object");
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null:
      return true;
    case Type::Bool:
      return bool_ == other.bool_;
    case Type::Number:
      return number_ == other.number_;
    case Type::String:
      return string_ == other.string_;
    case Type::Array:
      return array_ == other.array_;
    case Type::Object:
      return object_ == other.object_;
  }
  return false;
}

std::string json_escape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
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
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void dump_number(double n, std::string& out) {
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    out += str_format("%lld", static_cast<long long>(n));
  } else {
    out += str_format("%.17g", n);
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::Null:
      out = "null";
      break;
    case Type::Bool:
      out = bool_ ? "true" : "false";
      break;
    case Type::Number:
      dump_number(number_, out);
      break;
    case Type::String:
      out = json_escape(string_);
      break;
    case Type::Array: {
      out = "[";
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out.push_back(',');
        first = false;
        out += v.dump();
      }
      out.push_back(']');
      break;
    }
    case Type::Object: {
      out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        out += json_escape(key);
        out.push_back(':');
        out += value.dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> parse_document() {
    skip_ws();
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && ascii_isspace(text_[pos_])) ++pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool match_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return Json::string(std::move(*s));
      }
      case 't':
        return match_literal("true") ? std::optional(Json::boolean(true))
                                     : std::nullopt;
      case 'f':
        return match_literal("false") ? std::optional(Json::boolean(false))
                                      : std::nullopt;
      case 'n':
        return match_literal("null") ? std::optional(Json::null())
                                     : std::nullopt;
      default:
        return parse_number();
    }
  }

  std::optional<Json> parse_object() {
    if (!eat('{')) return std::nullopt;
    Json obj = Json::object();
    skip_ws();
    if (eat('}')) return obj;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      obj.set(std::move(*key), std::move(*value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return obj;
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array() {
    if (!eat('[')) return std::nullopt;
    Json arr = Json::array();
    skip_ws();
    if (eat(']')) return arr;
    while (true) {
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return arr;
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
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
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            // UTF-8 encode the BMP code point (surrogates unsupported).
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
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (ascii_isdigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Json::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace catalyst
