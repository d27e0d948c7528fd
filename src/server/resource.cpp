#include "server/resource.h"

#include <stdexcept>

#include "obs/selfprof.h"

namespace catalyst::server {

Resource::Resource(std::string path, http::ResourceClass resource_class,
                   ByteCount wire_size, ContentGenerator generator,
                   ChangeProcess changes, http::CacheControl cache_policy)
    : path_(std::move(path)),
      class_(resource_class),
      wire_size_(wire_size),
      generator_(std::move(generator)),
      changes_(std::move(changes)),
      cache_policy_(std::move(cache_policy)),
      versions_(std::make_unique<std::atomic<const VersionData*>[]>(
          changes_.total_changes() + 1)) {
  if (!generator_) {
    throw std::invalid_argument("Resource: generator required");
  }
}

Resource::~Resource() {
  for (std::size_t v = 0; v <= changes_.total_changes(); ++v) {
    delete versions_[v].load(std::memory_order_relaxed);
  }
}

const Resource::VersionData& Resource::materialize(
    std::uint64_t version) const {
  std::atomic<const VersionData*>& slot = versions_[version];
  if (const VersionData* data = slot.load(std::memory_order_acquire)) {
    return *data;
  }
  obs::count(obs::Sub::kContent);
  obs::ScopedTimer prof_timer(obs::Sub::kContent);
  auto data = std::make_unique<VersionData>();
  data->body = generator_(version);
  data->etag = http::make_digest_etag(data->body.digest());
  // Publish once. A thread that loses the race drops its copy, which holds
  // the same bytes, and returns the winner's.
  const VersionData* published = nullptr;
  if (slot.compare_exchange_strong(published, data.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *data.release();
  }
  return *published;
}

const http::Body& Resource::body_at(TimePoint t) const {
  return materialize(version_at(t)).body;
}

const http::Etag& Resource::etag_at(TimePoint t) const {
  return materialize(version_at(t)).etag;
}

}  // namespace catalyst::server
