// Content hashing used for entity-tag (ETag) generation and fast lookups.
//
// FNV-1a is the simulator's one content hash: the origin digests each
// content version once and both the ETag (its 16 hex digits) and every
// byte-equivalence check reuse that digest. Real servers such as nginx
// and Caddy derive ETags from mtime and size rather than a content hash;
// any stable per-version token serves the validation protocol the same
// way. FNV-1a also keys hash maps and seeds deterministic content
// synthesis.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace catalyst {

/// 64-bit FNV-1a over arbitrary bytes.
constexpr std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Lowercase hex rendering of arbitrary bytes.
std::string to_hex(const std::uint8_t* data, std::size_t size);

}  // namespace catalyst
