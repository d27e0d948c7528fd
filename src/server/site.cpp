#include "server/site.h"

#include <algorithm>
#include <stdexcept>

namespace catalyst::server {

namespace {

bool path_less(const Site::Entry& entry, const std::string& path) {
  return entry.path < path;
}

}  // namespace

Resource& Site::add_resource(std::unique_ptr<Resource> resource) {
  const std::string& path = resource->path();
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), path, path_less);
  if (pos != entries_.end() && pos->path == path) {
    throw std::invalid_argument("Site: duplicate resource " + path);
  }
  // The returned reference is heap-stable across later inserts.
  return *entries_.insert(pos, Entry{path, std::move(resource)})->resource;
}

const Resource* Site::find(const std::string& path) const {
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), path, path_less);
  return pos != entries_.end() && pos->path == path ? pos->resource.get()
                                                    : nullptr;
}

ByteCount Site::total_bytes() const {
  ByteCount total = 0;
  for (const Entry& entry : entries_) {
    total += entry.resource->wire_size();
  }
  return total;
}

}  // namespace catalyst::server
