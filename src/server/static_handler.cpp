#include "server/static_handler.h"

#include "http/date.h"

namespace catalyst::server {

http::Response StaticHandler::handle(const http::Request& request,
                                     TimePoint now) {
  const std::string path = request.path();
  if (site_.is_gone(path)) {
    http::Response resp = http::Response::make(http::Status::Gone);
    resp.body = "gone";
    resp.finalize(now);
    return resp;
  }
  const Resource* resource = site_.find(path);
  if (resource == nullptr) {
    http::Response resp = http::Response::make(http::Status::NotFound);
    resp.body = "not found";
    resp.finalize(now);
    return resp;
  }

  const http::Etag& etag = resource->etag_at(now);
  const TimePoint last_modified = resource->last_modified_at(now);

  // Cache-related headers every response variant carries.
  http::Headers cache_headers;
  const std::string cc = resource->cache_policy().to_string();
  if (!cc.empty()) cache_headers.set(http::kCacheControl, cc);
  cache_headers.set(http::kLastModified,
                    http::format_http_date(last_modified));

  const http::ConditionalOutcome outcome = http::evaluate_conditional(
      request, etag, last_modified);
  if (outcome == http::ConditionalOutcome::NotModified) {
    http::Response resp = http::make_not_modified(etag, cache_headers);
    resp.finalize(now);
    // 304 carries no body; Content-Length: 0 is implied.
    resp.headers.remove(http::kContentLength);
    return resp;
  }

  http::Response resp = http::Response::make(http::Status::Ok);
  resp.body = resource->body_at(now);
  // Opaque classes declare a larger wire size than the stand-in content.
  if (resource->wire_size() > resp.body.size()) {
    resp.declared_body_size = resource->wire_size();
  }
  resp.headers.set(http::kContentType,
                   http::mime_type(resource->resource_class()));
  resp.headers.set(http::kEtagHeader, etag.to_string());
  for (const auto& field : cache_headers.fields()) {
    resp.headers.set(field.name, field.value);
  }
  resp.finalize(now);
  return resp;
}

}  // namespace catalyst::server
