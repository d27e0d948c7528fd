// Per-user behaviour sampling for population-scale fleet simulation.
//
// A fleet run replays N independent user sessions. Each user is described
// entirely by a UserProfile — which site they frequent, what access network
// they sit on, and the absolute times of their visits over the simulated
// horizon — and every field is a pure function of (master_seed, user_id).
// That keying is the root of the fleet determinism invariant: no matter how
// users are later batched into shards or spread over worker threads, user
// 4711 always behaves identically.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/conditions.h"
#include "util/types.h"

namespace catalyst::fleet {

/// Access-network tier a user lives on for the whole simulated horizon.
/// The mix spans the paper's motivating range: well-served 5G down to the
/// latency-constrained links where caching decisions dominate PLT.
enum class AccessTier {
  Fast5g,       // 60 Mbps / 40 ms — the paper's median-5G condition
  Typical4g,    // 20 Mbps / 60 ms
  Slow3g,       // 8 Mbps / 120 ms — Figure 3's low-throughput column
  Constrained,  // 2 Mbps / 300 ms — satellite / congested last mile
};

/// Link shape for a tier (downlink / uplink / RTT).
netsim::NetworkConditions conditions_for(AccessTier tier);

/// Knobs for the population draw. The defaults model a week of traffic
/// against a 40-site catalog with Zipfian site popularity.
struct UserModelParams {
  std::uint64_t master_seed = 2024;

  /// Distinct synthetic sites users are assigned to (Zipf over rank).
  int site_catalog_size = 40;

  /// Zipf popularity exponent; ~0.9 matches web-trace fits.
  double zipf_exponent = 0.9;

  /// Visits are materialized over [0, horizon).
  Duration horizon = days(7);

  /// Fleet-wide mean inter-visit gap. Individual users scale it by a
  /// lognormal activity factor (heavy daily visitors to occasional ones).
  Duration mean_visit_gap = hours(36);

  /// Cap on visits per user (including the cold first visit) so a single
  /// hyper-active draw cannot dominate a shard's runtime.
  int max_visits = 6;

  /// Serve sites as static snapshots (the paper's clone methodology).
  bool clone_static_snapshot = true;

  /// Seed for the site catalog itself (independent of the population
  /// draw so the same catalog can be replayed under different fleets).
  std::uint64_t sitegen_seed = 2024;

  /// Site error model (workload::SitegenParams::ErrorModel): fractions of
  /// dead links (404), retired paths (410) and soft-404 JSON endpoints in
  /// the generated catalog. All zero (the default) leaves the catalog
  /// byte-identical to pre-error-model builds.
  double dead_link_fraction = 0.0;
  double gone_link_fraction = 0.0;
  double soft404_fraction = 0.0;
};

/// One user's complete, deterministic session description.
struct UserProfile {
  std::uint64_t user_id = 0;
  int site_index = 0;          // into the fleet's site catalog
  AccessTier tier = AccessTier::Fast5g;
  bool mobile_client = false;  // slower parse/execute (paper's motivation)
  std::vector<TimePoint> visits;  // ascending; visits.front() is cold
};

/// Samples user `user_id`'s profile. Pure in (params, user_id): the Rng
/// stream is forked from the master seed by user id, so the result is
/// independent of call order, shard assignment and thread interleaving.
UserProfile make_user_profile(const UserModelParams& params,
                              std::uint64_t user_id);

/// Maps a user to an edge PoP — a pure function of (master_seed, user_id,
/// pops), like every other per-user draw. The edge-enabled fleet partitions
/// shards by PoP, so this mapping (not shard geometry) decides which users
/// share cache state; determinism survives any --threads value.
int edge_pop_of(std::uint64_t master_seed, std::uint64_t user_id, int pops);

}  // namespace catalyst::fleet
