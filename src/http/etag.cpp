#include "http/etag.h"

#include "util/hash.h"
#include "util/strings.h"

namespace catalyst::http {

std::string Etag::to_string() const {
  std::string out;
  if (weak) out += "W/";
  out.push_back('"');
  out += value;
  out.push_back('"');
  return out;
}

std::optional<Etag> Etag::parse(std::string_view text) {
  text = trim(text);
  Etag etag;
  if (starts_with(text, "W/")) {
    etag.weak = true;
    text = text.substr(2);
  }
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
    return std::nullopt;
  }
  const std::string_view inner = text.substr(1, text.size() - 2);
  if (inner.find('"') != std::string_view::npos) return std::nullopt;
  etag.value = std::string(inner);
  return etag;
}

std::optional<IfNoneMatch> IfNoneMatch::parse(std::string_view text) {
  text = trim(text);
  IfNoneMatch out;
  if (text == "*") {
    out.any = true;
    return out;
  }
  for (std::string_view piece : split(text, ',')) {
    piece = trim(piece);
    if (piece.empty()) continue;
    auto tag = Etag::parse(piece);
    if (!tag) return std::nullopt;
    out.tags.push_back(std::move(*tag));
  }
  if (out.tags.empty()) return std::nullopt;
  return out;
}

bool IfNoneMatch::matches(const Etag& current) const {
  if (any) return true;
  for (const Etag& t : tags) {
    if (t.weak_equals(current)) return true;
  }
  return false;
}

Etag make_digest_etag(std::uint64_t content_digest) {
  // 16 hex chars (64 bits): the collision risk over a page's resource set
  // is negligible and the header stays compact.
  std::uint8_t big_endian[8]{};
  for (int i = 0; i < 8; ++i) {
    big_endian[i] = static_cast<std::uint8_t>(content_digest >> (56 - 8 * i));
  }
  return Etag{to_hex(big_endian, sizeof big_endian), /*weak=*/false};
}

Etag make_content_etag(std::string_view content) {
  return make_digest_etag(fnv1a64(content));
}

}  // namespace catalyst::http
