// Content types for the resource classes that make up a web page.
#pragma once

#include <string_view>

namespace catalyst::http {

/// Resource classes the workload generator and the browser distinguish.
enum class ResourceClass {
  Html,
  Css,
  Script,
  Image,
  Font,
  Json,   // XHR/fetch payloads
  Other,
};

/// Canonical MIME type for a resource class.
std::string_view mime_type(ResourceClass rc);

/// Infers the resource class from a path extension (".css", ".js", ...).
ResourceClass classify_path(std::string_view path);

/// Short human label ("css", "js", ...), used in traces and tables.
std::string_view class_label(ResourceClass rc);

}  // namespace catalyst::http
