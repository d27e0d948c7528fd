// Case-insensitive, order-preserving HTTP header map (RFC 9110 §5).
//
// Header names compare ASCII-case-insensitively; insertion order is kept so
// serialized messages are byte-stable, which matters because header bytes
// count against transmission time (the X-Etag-Config map rides in a header).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace catalyst::http {

class Headers {
 public:
  struct Field {
    std::string name;
    std::string value;
  };

  /// Appends a field (allows duplicates, e.g. Set-Cookie).
  void add(std::string_view name, std::string_view value);

  /// Replaces all fields of `name` with a single value.
  void set(std::string_view name, std::string_view value);

  /// Removes all fields of `name`; returns how many were removed.
  std::size_t remove(std::string_view name);

  /// First value for `name`, if present.
  std::optional<std::string_view> get(std::string_view name) const;

  bool contains(std::string_view name) const;

  const std::vector<Field>& fields() const { return fields_; }
  std::size_t size() const { return fields_.size(); }
  bool empty() const { return fields_.empty(); }

  /// Wire size of the header block: Σ (name + ": " + value + CRLF).
  ByteCount wire_size() const;

  bool operator==(const Headers& other) const;

 private:
  std::vector<Field> fields_;
};

// Canonical header names used across the codebase (single point of truth so
// typos fail to link rather than silently miss).
inline constexpr std::string_view kCacheControl = "Cache-Control";
inline constexpr std::string_view kContentLength = "Content-Length";
inline constexpr std::string_view kContentType = "Content-Type";
inline constexpr std::string_view kDate = "Date";
inline constexpr std::string_view kEtagHeader = "ETag";
inline constexpr std::string_view kExpires = "Expires";
inline constexpr std::string_view kHost = "Host";
inline constexpr std::string_view kIfModifiedSince = "If-Modified-Since";
inline constexpr std::string_view kIfNoneMatch = "If-None-Match";
inline constexpr std::string_view kLastModified = "Last-Modified";
inline constexpr std::string_view kAge = "Age";
inline constexpr std::string_view kXEtagConfig = "X-Etag-Config";
inline constexpr std::string_view kXForwardedHost = "X-Forwarded-Host";

}  // namespace catalyst::http
