// HTTP request/response value types with wire-size accounting.
//
// Bodies carry both real content (the browser parses HTML/CSS and "runs"
// JS) and a declared wire size, so large binary resources (images, fonts)
// do not need megabytes of synthetic bytes to cost the right transmission
// time. Invariant: wire body size >= content size, and all timing uses the
// wire size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "http/cache_control.h"
#include "http/etag.h"
#include "http/headers.h"
#include "http/method.h"
#include "http/status.h"
#include "util/hash.h"
#include "util/types.h"

namespace catalyst::http {

class Request {
 public:
  Method method = Method::Get;
  std::string target = "/";  // path + optional query (origin-form)
  Headers headers;
  std::string body;

  /// Convenience constructor for the common GET case.
  static Request get(std::string_view target, std::string_view host);

  /// Bytes this request occupies on the wire (request line + headers +
  /// blank line + body).
  ByteCount wire_size() const;

  /// Parsed If-None-Match header, if present and well-formed.
  std::optional<IfNoneMatch> if_none_match() const;
};

/// An immutable response body, shared by handle. A body travels from the
/// origin's per-version memo through the edge, the HTTP cache, the Service
/// Worker cache and the page loader; copying a Body copies one pointer,
/// not the bytes. The FNV-1a digest is taken once, when the bytes are set,
/// so ETags, replay traces, the SW integrity check, the oracle and the
/// scan memo all read it for free. Nothing writes through a Body: a
/// changed body is a new Body.
class Body {
 public:
  /// The empty body.
  Body() = default;
  /// Takes the bytes and digests them. Implicit: a Body is assigned like
  /// the string it holds.
  Body(std::string bytes);
  Body(const char* bytes) : Body(std::string(bytes)) {}

  const std::string& str() const {
    static const std::string empty;
    return rep_ ? rep_->bytes : empty;
  }
  std::size_t size() const { return rep_ ? rep_->bytes.size() : 0; }

  /// fnv1a64(str()), taken at construction.
  std::uint64_t digest() const { return rep_ ? rep_->digest : fnv1a64({}); }

 private:
  struct Rep {
    std::string bytes;
    std::uint64_t digest;
  };
  std::shared_ptr<const Rep> rep_;  // null for the empty body
};

class Response {
 public:
  Status status = Status::Ok;
  Headers headers;
  Body body;  // actual content (parsed by the client when relevant)

  /// Declared wire size of the body; when 0 the actual body size is used.
  ByteCount declared_body_size = 0;

  static Response make(Status status);

  /// Body bytes counted on the wire.
  ByteCount body_wire_size() const {
    return declared_body_size > 0 ? declared_body_size : body.size();
  }

  /// Bytes on the wire (status line + headers + blank line + body).
  ByteCount wire_size() const;

  /// Parsed Cache-Control header (empty directives if absent).
  CacheControl cache_control() const;

  /// Parsed ETag header, if present and well-formed.
  std::optional<Etag> etag() const;

  /// FNV-1a digest of `body`, taken when the body was set.
  std::uint64_t body_digest() const { return body.digest(); }

  /// Sets Content-Length from the wire body size and Date from `now`.
  void finalize(TimePoint now);
};

}  // namespace catalyst::http
