#include "http/serializer.h"

#include "util/strings.h"

namespace catalyst::http {

std::string serialize(const Request& request) {
  std::string out;
  out.reserve(request.wire_size());
  out.append(to_string(request.method));
  out.push_back(' ');
  out.append(request.target);
  out.append(" HTTP/1.1\r\n");
  for (const auto& field : request.headers.fields()) {
    out.append(field.name);
    out.append(": ");
    out.append(field.value);
    out.append("\r\n");
  }
  out.append("\r\n");
  out.append(request.body);
  return out;
}

std::string serialize(const Response& response) {
  std::string out;
  out.append(str_format("HTTP/1.1 %03d ", code(response.status)));
  out.append(reason_phrase(response.status));
  out.append("\r\n");
  for (const auto& field : response.headers.fields()) {
    out.append(field.name);
    out.append(": ");
    out.append(field.value);
    out.append("\r\n");
  }
  out.append("\r\n");
  out.append(response.body.str());
  return out;
}

}  // namespace catalyst::http
