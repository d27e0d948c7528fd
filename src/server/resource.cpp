#include "server/resource.h"

#include <stdexcept>

namespace catalyst::server {

Resource::Resource(std::string path, http::ResourceClass resource_class,
                   ByteCount wire_size, ContentGenerator generator,
                   ChangeProcess changes, http::CacheControl cache_policy)
    : path_(std::move(path)),
      class_(resource_class),
      wire_size_(wire_size),
      generator_(std::move(generator)),
      changes_(std::move(changes)),
      cache_policy_(std::move(cache_policy)) {
  if (!generator_) {
    throw std::invalid_argument("Resource: generator required");
  }
}

const Resource::VersionData& Resource::materialize(
    std::uint64_t version) const {
  const auto it = versions_.find(version);
  if (it != versions_.end()) return it->second;
  VersionData data;
  data.body = generator_(version);
  data.etag = http::make_digest_etag(data.body.digest());
  return versions_.emplace(version, std::move(data)).first->second;
}

const http::Body& Resource::body_at(TimePoint t) const {
  return materialize(version_at(t)).body;
}

const http::Etag& Resource::etag_at(TimePoint t) const {
  return materialize(version_at(t)).etag;
}

}  // namespace catalyst::server
