// URL parsing, serialization and reference resolution (RFC 3986 subset).
//
// The browser emulator resolves every link it discovers in HTML/CSS against
// the document base URL, and origins (scheme + host + port) decide which
// connection pool and which Service Worker a request is routed through —
// exactly the same-origin rule the paper's Service Worker relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace catalyst {

/// A parsed absolute or relative URL.
struct Url {
  std::string scheme;   // lowercase; empty for relative references
  std::string host;     // lowercase; empty for relative references
  std::uint16_t port{0};  // 0 = scheme default
  std::string path;     // always begins with '/' when host is present
  std::string query;    // without the leading '?'

  /// Parses an absolute URL or relative reference. Returns nullopt on
  /// syntactically hopeless input (empty, embedded whitespace, bad port).
  static std::optional<Url> parse(std::string_view text);

  /// Resolves `reference` against this base URL (RFC 3986 §5 subset:
  /// absolute, network-path, absolute-path and relative-path references).
  Url resolve(const Url& reference) const;

  /// scheme://host[:port] with the port omitted when it is the default.
  std::string origin() const;

  bool is_absolute() const { return !scheme.empty(); }

  /// path + ('?' + query). The request-target used on the wire and as the
  /// cache key within an origin.
  std::string path_and_query() const;

  /// Appends path_and_query() to `out` without a temporary string.
  void append_path_and_query(std::string& out) const;

  /// Full serialization.
  std::string to_string() const;

  bool operator==(const Url& other) const = default;
};

/// Merges dot-segments per RFC 3986 §5.2.4 ("a/./b/../c" -> "a/c").
std::string remove_dot_segments(std::string_view path);

}  // namespace catalyst
