// HTTP status codes used by the simulation (RFC 9110 §15).
#pragma once

#include <string_view>

namespace catalyst::http {

enum class Status : int {
  Ok = 200,
  NoContent = 204,
  MovedPermanently = 301,
  Found = 302,
  NotModified = 304,
  BadRequest = 400,
  Forbidden = 403,
  NotFound = 404,
  Gone = 410,
  PreconditionFailed = 412,
  InternalServerError = 500,
  BadGateway = 502,
  ServiceUnavailable = 503,
  GatewayTimeout = 504,
};

constexpr int code(Status s) { return static_cast<int>(s); }

std::string_view reason_phrase(Status s);

/// Heuristically cacheable status codes per RFC 9111 §3.
constexpr bool is_cacheable_status(Status s) {
  switch (s) {
    case Status::Ok:
    case Status::NoContent:
    case Status::MovedPermanently:
    case Status::NotFound:
    case Status::Gone:
      return true;
    default:
      return false;
  }
}

}  // namespace catalyst::http
