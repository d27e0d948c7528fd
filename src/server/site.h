// A virtual website: a host name plus its resource tree.
//
// The workload generator assembles Sites whose HTML/CSS/JS bodies really
// reference each other; the same Site object backs every strategy's origin
// server so comparisons are apples-to-apples.
//
// Storage: resources live in a vector sorted by path (iteration order is
// the old std::map order, which downstream byte-identity depends on) with
// an interned-key FlatHashMap index for the per-request find() — the
// single hottest origin-side lookup. The sort is maintained lazily so
// site construction stays O(n log n).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "server/resource.h"
#include "util/flat_hash.h"
#include "util/intern.h"

namespace catalyst::server {

class Site {
 public:
  /// One path → resource binding. Named members (not std::pair) so
  /// `for (const auto& [path, resource] : site.resources())` keeps
  /// working across the container change.
  struct Entry {
    std::string path;
    std::unique_ptr<Resource> resource;
  };

  explicit Site(std::string host) : host_(std::move(host)) {}

  const std::string& host() const { return host_; }

  /// The page entry point ("/" or "/index.html").
  const std::string& index_path() const { return index_path_; }
  void set_index_path(std::string path) { index_path_ = std::move(path); }

  Resource& add_resource(std::unique_ptr<Resource> resource);

  /// nullptr when the path is unknown.
  const Resource* find(const std::string& path) const;
  Resource* find(const std::string& path);

  /// Entries sorted by path (stable, deterministic iteration order).
  const std::vector<Entry>& resources() const {
    ensure_sorted();
    return entries_;
  }
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
  void ensure_sorted() const;

  std::string host_;
  std::string index_path_ = "/index.html";
  // Sorted by path once ensure_sorted() ran; appended unsorted by
  // add_resource. mutable: sorting is a cache-consistency detail.
  mutable std::vector<Entry> entries_;
  mutable FlatHashMap<InternId, std::uint32_t> index_;
  mutable bool sorted_ = true;
  std::vector<std::string> gone_paths_;
};

}  // namespace catalyst::server
