// Per-request latency phase taxonomy.
//
// The paper's argument is about *where* page-load time goes on
// latency-constrained links; this enum names the phases the simulator can
// attribute virtual time to. Client-side phases (Dns..Backoff) partition a
// fetch's wall time exactly: for a network fetch,
//   dns + connect + tls + queue + ttfb + transfer == finish - start,
// and for a cache-served fetch the single SwDecision / CacheLookup sample
// is the whole duration. Server-side phases (EdgeLookup, FlashIo) are
// decompositions that overlap the client's Ttfb — they explain it, they do
// not add to it, so sum-over-phases checks must exclude them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace catalyst::obs {

enum class Phase : std::uint8_t {
  // Client-side partition of a fetch.
  kDns,          // resolver lookup (first connection per origin)
  kConnect,      // TCP handshake (one RTT)
  kTls,          // TLS handshake (one extra RTT when the origin uses TLS)
  kQueue,        // waiting for a free slot on an http/1.1 connection, or
                 // for an in-progress handshake the request rides on
  kTtfb,         // request upload + server think time, to first reply byte
  kTransfer,     // reply bytes on the wire
  kSwDecision,   // Service-Worker interception pipeline on an SW serve
  kCacheLookup,  // HTTP-cache / push-claim / oracle-hit lookup overhead
  kBackoff,      // retry backoff delay on the resilient fetch path
  // Server-side decompositions of the client's Ttfb.
  kEdgeLookup,   // edge-PoP arrival to reply dispatch (hit or fill)
  kFlashIo,      // flash read, AioEngine submit to completion
};

inline constexpr std::size_t kPhaseCount = 11;

inline constexpr std::array<Phase, kPhaseCount> kAllPhases = {
    Phase::kDns,        Phase::kConnect,     Phase::kTls,
    Phase::kQueue,      Phase::kTtfb,        Phase::kTransfer,
    Phase::kSwDecision, Phase::kCacheLookup, Phase::kBackoff,
    Phase::kEdgeLookup, Phase::kFlashIo,
};

/// Phases that overlap the client's Ttfb instead of partitioning the
/// fetch; excluded from sum-to-total accounting.
constexpr bool is_server_side(Phase p) {
  return p == Phase::kEdgeLookup || p == Phase::kFlashIo;
}

constexpr std::size_t phase_index(Phase p) {
  return static_cast<std::size_t>(p);
}

constexpr std::string_view to_string(Phase p) {
  switch (p) {
    case Phase::kDns: return "dns";
    case Phase::kConnect: return "connect";
    case Phase::kTls: return "tls";
    case Phase::kQueue: return "queue";
    case Phase::kTtfb: return "ttfb";
    case Phase::kTransfer: return "transfer";
    case Phase::kSwDecision: return "sw_decision";
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kBackoff: return "backoff";
    case Phase::kEdgeLookup: return "edge_lookup";
    case Phase::kFlashIo: return "flash_io";
  }
  return "unknown";
}

}  // namespace catalyst::obs
