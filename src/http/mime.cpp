#include "http/mime.h"

#include "util/strings.h"

namespace catalyst::http {

std::string_view mime_type(ResourceClass rc) {
  switch (rc) {
    case ResourceClass::Html:
      return "text/html; charset=utf-8";
    case ResourceClass::Css:
      return "text/css";
    case ResourceClass::Script:
      return "application/javascript";
    case ResourceClass::Image:
      return "image/webp";
    case ResourceClass::Font:
      return "font/woff2";
    case ResourceClass::Json:
      return "application/json";
    case ResourceClass::Other:
      return "application/octet-stream";
  }
  return "application/octet-stream";
}

ResourceClass classify_path(std::string_view path) {
  // Ignore any query string.
  if (const auto q = path.find('?'); q != std::string_view::npos) {
    path = path.substr(0, q);
  }
  if (ends_with(path, ".html") || ends_with(path, ".htm") || path == "/" ||
      ends_with(path, "/")) {
    return ResourceClass::Html;
  }
  if (ends_with(path, ".css")) return ResourceClass::Css;
  if (ends_with(path, ".js") || ends_with(path, ".mjs")) {
    return ResourceClass::Script;
  }
  if (ends_with(path, ".png") || ends_with(path, ".jpg") ||
      ends_with(path, ".jpeg") || ends_with(path, ".gif") ||
      ends_with(path, ".webp") || ends_with(path, ".svg") ||
      ends_with(path, ".ico")) {
    return ResourceClass::Image;
  }
  if (ends_with(path, ".woff") || ends_with(path, ".woff2") ||
      ends_with(path, ".ttf")) {
    return ResourceClass::Font;
  }
  if (ends_with(path, ".json")) return ResourceClass::Json;
  return ResourceClass::Other;
}

std::string_view class_label(ResourceClass rc) {
  switch (rc) {
    case ResourceClass::Html:
      return "html";
    case ResourceClass::Css:
      return "css";
    case ResourceClass::Script:
      return "js";
    case ResourceClass::Image:
      return "img";
    case ResourceClass::Font:
      return "font";
    case ResourceClass::Json:
      return "json";
    case ResourceClass::Other:
      return "other";
  }
  return "other";
}

}  // namespace catalyst::http
