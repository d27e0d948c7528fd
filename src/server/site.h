// A virtual website: a host name plus its resource tree.
//
// The workload generator assembles Sites whose HTML/CSS/JS bodies really
// reference each other; the same Site object backs every strategy's origin
// server so comparisons are apples-to-apples.
//
// Storage: resources live in a vector kept sorted by path on insert, so
// iteration is in path order (which downstream byte-identity depends on)
// and the per-request find() is a binary search.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "server/resource.h"

namespace catalyst::server {

class Site {
 public:
  /// One path → resource binding.
  struct Entry {
    std::string path;
    std::unique_ptr<Resource> resource;
  };

  explicit Site(std::string host) : host_(std::move(host)) {}

  const std::string& host() const { return host_; }

  /// The page entry point ("/" or "/index.html").
  const std::string& index_path() const { return index_path_; }
  void set_index_path(std::string path) { index_path_ = std::move(path); }

  /// Throws std::invalid_argument when the path is already present.
  Resource& add_resource(std::unique_ptr<Resource> resource);

  /// nullptr when the path is unknown.
  const Resource* find(const std::string& path) const;

  /// Entries sorted by path (stable, deterministic iteration order).
  const std::vector<Entry>& resources() const { return entries_; }
  std::size_t resource_count() const { return entries_.size(); }

  /// Total declared wire size of all resources (page weight).
  ByteCount total_bytes() const;

  /// Registers a retired path: the origin answers 410 Gone for it (the
  /// permanent flavor of dead link, negative-cacheable like a 404).
  void add_gone_path(std::string path) {
    gone_paths_.push_back(std::move(path));
  }
  bool is_gone(const std::string& path) const {
    return std::find(gone_paths_.begin(), gone_paths_.end(), path) !=
           gone_paths_.end();
  }

 private:
  std::string host_;
  std::string index_path_ = "/index.html";
  std::vector<Entry> entries_;  // sorted by path
  std::vector<std::string> gone_paths_;
};

}  // namespace catalyst::server
