// The X-Etag-Config header (the paper's wire protocol, §3).
//
// A JSON object mapping same-origin resource paths to their current entity
// tags, attached to base-HTML responses. The Service Worker decodes it and
// serves matching cached resources without any network round trip.
//
// Storage: entries sit in a vector kept sorted by path on insert, so
// entries() is in wire order and find(), the per-resource lookup every
// Service Worker serve performs, is a binary search.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/etag.h"
#include "util/types.h"

namespace catalyst::http {

class EtagConfig {
 public:
  /// One path → ETag binding.
  struct Entry {
    std::string path;
    Etag etag;
  };

  EtagConfig() = default;

  /// Adds or replaces: the last add for a path wins.
  void add(std::string path, Etag etag);

  /// ETag for a path, if the map covers it.
  std::optional<Etag> find(std::string_view path) const;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Entries sorted by path (the encode()/wire order).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Serializes to the header value (compact JSON object
  /// {"/a.css":"W/\"abc\"", ...}).
  std::string encode() const;

  /// Parses a header value. nullopt on malformed JSON or non-string
  /// values; entries with malformed ETags are dropped (robustness
  /// principle — one bad entry must not disable the whole map).
  static std::optional<EtagConfig> parse(std::string_view header_value);

  /// Wire overhead this map adds to a response (header name + value).
  ByteCount header_wire_size() const;

 private:
  std::vector<Entry> entries_;  // sorted by path
};

}  // namespace catalyst::http
