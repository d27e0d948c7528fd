#include "http/conditional.h"

#include "http/date.h"
#include "util/strings.h"

namespace catalyst::http {

ConditionalOutcome evaluate_conditional(
    const Request& request, const Etag& current_etag,
    std::optional<TimePoint> last_modified) {
  // If-None-Match takes precedence over If-Modified-Since (RFC 9110
  // §13.2.2).
  if (request.headers.contains(kIfNoneMatch)) {
    const auto inm = request.if_none_match();
    if (!inm) return ConditionalOutcome::Modified;  // malformed: play safe
    return inm->matches(current_etag) ? ConditionalOutcome::NotModified
                                      : ConditionalOutcome::Modified;
  }
  if (const auto ims = request.headers.get(kIfModifiedSince)) {
    const auto since = parse_http_date(*ims);
    if (since && last_modified && *last_modified <= *since) {
      return ConditionalOutcome::NotModified;
    }
    return ConditionalOutcome::Modified;
  }
  return ConditionalOutcome::NotConditional;
}

bool add_validators(Request& request, const Response& stored) {
  if (const auto etag = stored.etag()) {
    request.headers.set(kIfNoneMatch, etag->to_string());
    return true;
  }
  if (const auto lm = stored.headers.get(kLastModified)) {
    request.headers.set(kIfModifiedSince, *lm);
    return true;
  }
  return false;
}

Response make_not_modified(const Etag& current_etag,
                           const Headers& cache_headers) {
  Response resp = Response::make(Status::NotModified);
  resp.headers.set(kEtagHeader, current_etag.to_string());
  // Propagate headers a cache must update on revalidation.
  for (const auto& field : cache_headers.fields()) {
    if (iequals(field.name, kCacheControl) ||
        iequals(field.name, kExpires) ||
        iequals(field.name, kLastModified)) {
      resp.headers.set(field.name, field.value);
    }
  }
  return resp;
}

}  // namespace catalyst::http
