// Deterministic cache adversary: a scripted attacker client parked on the
// testbed network that (a) tries to poison the shared edge tier through
// requests carrying unkeyed input (X-Forwarded-Host, which a vulnerable
// origin reflects into bodies — the classic unkeyed-header poisoning of
// web-cache-poisoning literature), and (b) runs timing probes that infer
// cache occupancy from response latency (an edge PoP shared across users
// is a cross-user side channel).
//
// The adversary is measurement/attack traffic only: whether a strike
// *lands* depends entirely on the defenses under test (edge cache keying,
// origin reflection) — the module itself never touches cache state.
// Everything it does is driven by its own seeded RNG stream, so
// adversary-off runs are byte-identical and adversary-on runs replay
// exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "edge/pop.h"
#include "netsim/transport.h"
#include "util/rng.h"

namespace catalyst::workload {

struct AdversaryParams {
  bool enabled = false;
  std::uint64_t seed = 0xadba5e;

  /// Poisoning requests per strike, each carrying an X-Forwarded-Host
  /// payload. The first always targets the page entry point (the serve a
  /// victim is guaranteed to consume); the rest pick random site paths.
  int requests_per_strike = 4;
};

class Adversary {
 public:
  /// Network host name the adversary connects from (registered by the
  /// testbed, parked close to the PoP).
  static constexpr const char* kHost = "attacker";

  /// `target_paths` must be non-empty; index 0 is the page entry point.
  /// The PoP reference is for attack telemetry only (note_adversary_*).
  /// A probe answered within `hit_threshold` counts as a cache hit.
  Adversary(netsim::Network& network, edge::EdgePop& pop,
            std::vector<std::string> target_paths, AdversaryParams params,
            Duration hit_threshold);

  /// Fires one strike: poisoning requests issued at the current virtual
  /// time, then timing probes once every poison response has landed (a
  /// probe measures whether the *poisoned* entry is resident — and firing
  /// it concurrently would race the poison for the coalesced fill).
  /// Callers drain the event loop; the PoP counts the strike's requests
  /// and probe hits (EdgePopStats::adversary_*).
  void strike();

  const AdversaryParams& params() const { return params_; }

 private:
  void send_poison(const std::string& path, const std::string& payload);
  void send_probe(const std::string& path);
  void flush_probes();
  netsim::Connection& fresh_connection();

  netsim::Network& network_;
  edge::EdgePop& pop_;
  std::vector<std::string> paths_;
  AdversaryParams params_;
  Duration hit_threshold_;
  Rng rng_;
  std::uint64_t strikes_ = 0;  // labels each strike's leak payload
  // Probe paths drawn at strike time (fixed draw order) but sent only
  // after the strike's poison responses return.
  int pending_poisons_ = 0;
  std::vector<std::string> queued_probes_;
  // One connection per request: probe latency must not include another
  // request's H1 queueing. Kept alive for the adversary's lifetime so
  // in-flight callbacks never dangle.
  std::vector<std::unique_ptr<netsim::Connection>> connections_;
};

}  // namespace catalyst::workload
