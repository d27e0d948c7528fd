// HTTP request methods (RFC 9110 §9). The simulator only issues safe
// methods, but the message layer models the full set.
#pragma once

#include <string_view>

namespace catalyst::http {

enum class Method { Get, Head, Post, Put, Delete, Options, Trace, Connect };

constexpr std::string_view to_string(Method m) {
  switch (m) {
    case Method::Get:
      return "GET";
    case Method::Head:
      return "HEAD";
    case Method::Post:
      return "POST";
    case Method::Put:
      return "PUT";
    case Method::Delete:
      return "DELETE";
    case Method::Options:
      return "OPTIONS";
    case Method::Trace:
      return "TRACE";
    case Method::Connect:
      return "CONNECT";
  }
  return "GET";
}

}  // namespace catalyst::http
