#include "http/message.h"

#include "http/date.h"

namespace catalyst::http {

Request Request::get(std::string_view target, std::string_view host) {
  Request req;
  req.method = Method::Get;
  req.target = std::string(target);
  req.headers.set(kHost, host);
  return req;
}

ByteCount Request::wire_size() const {
  // "<METHOD> <target> HTTP/1.1\r\n" + headers + "\r\n" + body
  return to_string(method).size() + 1 + target.size() + 1 + 8 + 2 +
         headers.wire_size() + 2 + body.size();
}

std::optional<IfNoneMatch> Request::if_none_match() const {
  const auto field = headers.get(kIfNoneMatch);
  if (!field) return std::nullopt;
  return IfNoneMatch::parse(*field);
}

std::string Request::path() const {
  return target.substr(0, target.find('?'));
}

Body::Body(std::string bytes) {
  if (bytes.empty()) return;
  const std::uint64_t digest = fnv1a64(bytes);
  rep_ = std::make_shared<const Rep>(Rep{std::move(bytes), digest});
}

Response Response::make(Status s) {
  Response r;
  r.status = s;
  return r;
}

ByteCount Response::wire_size() const {
  // "HTTP/1.1 <code> <reason>\r\n" + headers + "\r\n" + body
  return 8 + 1 + 3 + 1 + reason_phrase(status).size() + 2 +
         headers.wire_size() + 2 + body_wire_size();
}

CacheControl Response::cache_control() const {
  const auto field = headers.get(kCacheControl);
  if (!field) return CacheControl{};
  return CacheControl::parse(*field);
}

std::optional<Etag> Response::etag() const {
  const auto field = headers.get(kEtagHeader);
  if (!field) return std::nullopt;
  return Etag::parse(*field);
}

void Response::finalize(TimePoint now) {
  headers.set(kContentLength, std::to_string(body_wire_size()));
  headers.set(kDate, format_http_date(now));
}

}  // namespace catalyst::http
