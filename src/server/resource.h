// A versioned origin resource: content generator + change process +
// cache-header policy.
//
// Each content version is published once into its own slot and never
// changes after, so one Resource (and the Site that owns it) serves every
// thread: a fleet run's shards share one catalog.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "http/cache_control.h"
#include "http/etag.h"
#include "http/message.h"
#include "http/mime.h"
#include "server/change_model.h"
#include "util/types.h"

namespace catalyst::server {

/// Produces the resource's body text for a given content version. Output
/// must differ between versions (the version is typically salted in), and
/// the generator must be safe to call from several threads at once.
using ContentGenerator = std::function<std::string(std::uint64_t version)>;

class Resource {
 public:
  Resource(std::string path, http::ResourceClass resource_class,
           ByteCount wire_size, ContentGenerator generator,
           ChangeProcess changes, http::CacheControl cache_policy);
  ~Resource();

  // Returned bodies and ETags point into the version slots, so a Resource
  // stays where it was built.
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& path() const { return path_; }
  http::ResourceClass resource_class() const { return class_; }

  /// Declared size on the wire. For text classes (html/css/js) this equals
  /// the generated content size; for opaque classes (img/font) the
  /// generated content is a small stand-in and this declared size rules.
  ByteCount wire_size() const { return wire_size_; }

  const http::CacheControl& cache_policy() const { return cache_policy_; }

  const ChangeProcess& changes() const { return changes_; }

  std::uint64_t version_at(TimePoint t) const {
    return changes_.version_at(t);
  }

  /// Body at time t, built once per version: every 200 that serves the
  /// version, on any thread, shares this one buffer and its digest. The
  /// reference stays valid for the life of the Resource.
  const http::Body& body_at(TimePoint t) const;

  /// Body content at time t: body_at(t).str().
  const std::string& content_at(TimePoint t) const {
    return body_at(t).str();
  }

  /// Entity tag at time t: the hex rendering of body_at(t).digest()
  /// (built with the body).
  const http::Etag& etag_at(TimePoint t) const;

  /// Last-Modified instant at time t.
  TimePoint last_modified_at(TimePoint t) const {
    return changes_.last_change_at(t);
  }

 private:
  struct VersionData {
    http::Body body;
    http::Etag etag;
  };

  const VersionData& materialize(std::uint64_t version) const;

  std::string path_;
  http::ResourceClass class_;
  ByteCount wire_size_;
  ContentGenerator generator_;
  ChangeProcess changes_;
  http::CacheControl cache_policy_;
  // One write-once slot per version 0 ... changes_.total_changes(): null
  // until the version is first served, then owned here and never changed.
  std::unique_ptr<std::atomic<const VersionData*>[]> versions_;
};

}  // namespace catalyst::server
