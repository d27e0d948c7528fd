// Entity tags and If-None-Match evaluation (RFC 9110 §8.8.3, §13.1.2).
//
// ETags are the validation tokens at the heart of the paper: the status-quo
// path compares them on the server (costing an RTT), CacheCatalyst ships
// them ahead in X-Etag-Config so the comparison happens on the client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace catalyst::http {

/// A parsed entity tag: opaque value plus weakness flag.
struct Etag {
  std::string value;  // opaque contents, without quotes or W/ prefix
  bool weak = false;

  /// Serializes to the wire form: `"value"` or `W/"value"`.
  std::string to_string() const;

  /// Parses a wire-form entity tag. Returns nullopt for malformed input
  /// (missing quotes, embedded quotes, ...).
  static std::optional<Etag> parse(std::string_view text);

  /// Strong comparison (RFC 9110 §8.8.3.2): equal values, both strong.
  bool strong_equals(const Etag& other) const {
    return !weak && !other.weak && value == other.value;
  }

  /// Weak comparison: equal values, weakness ignored.
  bool weak_equals(const Etag& other) const { return value == other.value; }

  bool operator==(const Etag& other) const = default;
};

/// Parsed If-None-Match field: either "*" or a list of entity tags.
struct IfNoneMatch {
  bool any = false;  // "*"
  std::vector<Etag> tags;

  static std::optional<IfNoneMatch> parse(std::string_view text);

  /// RFC 9110 §13.1.2: If-None-Match matching uses *weak* comparison.
  /// True when the condition fails (i.e. the representation matches and a
  /// 304 should be returned for GET/HEAD).
  bool matches(const Etag& current) const;
};

/// Builds the strong entity tag for a body whose FNV-1a digest is
/// `content_digest`: the digest's 16 lowercase hex digits. Callers that
/// already hold the digest (the origin's per-version memo) skip rehashing.
Etag make_digest_etag(std::uint64_t content_digest);

/// Builds a strong content-derived entity tag:
/// make_digest_etag(fnv1a64(content)).
Etag make_content_etag(std::string_view content);

}  // namespace catalyst::http
