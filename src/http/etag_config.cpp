#include "http/etag_config.h"

#include <algorithm>

#include "http/headers.h"
#include "util/json.h"

namespace catalyst::http {

namespace {

bool path_less(const EtagConfig::Entry& entry, std::string_view path) {
  return entry.path < path;
}

}  // namespace

void EtagConfig::add(std::string path, Etag etag) {
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), path, path_less);
  if (pos != entries_.end() && pos->path == path) {
    pos->etag = std::move(etag);
    return;
  }
  entries_.insert(pos, Entry{std::move(path), std::move(etag)});
}

std::optional<Etag> EtagConfig::find(std::string_view path) const {
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), path, path_less);
  if (pos == entries_.end() || pos->path != path) return std::nullopt;
  return pos->etag;
}

std::string EtagConfig::encode() const {
  Json object = Json::object();
  for (const Entry& entry : entries_) {
    object.set(entry.path, Json::string(entry.etag.to_string()));
  }
  return object.dump();
}

std::optional<EtagConfig> EtagConfig::parse(std::string_view header_value) {
  const auto json = Json::parse(header_value);
  if (!json || !json->is_object()) return std::nullopt;
  EtagConfig config;
  for (const auto& [path, value] : json->as_object()) {
    if (!value.is_string()) return std::nullopt;
    if (auto etag = Etag::parse(value.as_string())) {
      config.add(path, std::move(*etag));
    }
  }
  return config;
}

ByteCount EtagConfig::header_wire_size() const {
  return kXEtagConfig.size() + 2 + encode().size() + 2;
}

}  // namespace catalyst::http
