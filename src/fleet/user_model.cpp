#include "fleet/user_model.h"

#include <stdexcept>

#include "util/rng.h"
#include "workload/distributions.h"

namespace catalyst::fleet {

netsim::NetworkConditions conditions_for(AccessTier tier) {
  netsim::NetworkConditions c;
  switch (tier) {
    case AccessTier::Fast5g:
      return netsim::NetworkConditions::median_5g();
    case AccessTier::Typical4g:
      c.downlink = mbps(20);
      c.uplink = mbps(6);
      c.rtt = milliseconds(60);
      return c;
    case AccessTier::Slow3g:
      c.downlink = mbps(8);
      c.uplink = mbps(2);
      c.rtt = milliseconds(120);
      return c;
    case AccessTier::Constrained:
      c.downlink = mbps(2);
      c.uplink = kbps(500);
      c.rtt = milliseconds(300);
      return c;
  }
  return c;
}

UserProfile make_user_profile(const UserModelParams& params,
                              std::uint64_t user_id) {
  if (params.site_catalog_size <= 0) {
    throw std::invalid_argument("make_user_profile: empty site catalog");
  }
  if (params.max_visits < 1) {
    throw std::invalid_argument("make_user_profile: max_visits < 1");
  }
  // All randomness flows from this fork: stable for (master_seed, user_id)
  // no matter which shard or thread evaluates it.
  Rng rng = Rng(params.master_seed).fork(user_id);

  UserProfile profile;
  profile.user_id = user_id;
  profile.site_index = static_cast<int>(workload::draw_zipf_rank(
      static_cast<std::size_t>(params.site_catalog_size),
      params.zipf_exponent, rng));

  // Access-tier mix: mostly well-served users, with a real tail on the
  // latency-constrained links the paper targets.
  static const std::vector<double> kTierWeights = {0.35, 0.35, 0.20, 0.10};
  profile.tier = static_cast<AccessTier>(rng.weighted_index(kTierWeights));

  // Mobile share grows as the access network worsens (the constrained
  // tail is overwhelmingly mobile).
  static constexpr double kMobileShare[] = {0.45, 0.55, 0.75, 0.90};
  profile.mobile_client =
      rng.bernoulli(kMobileShare[static_cast<int>(profile.tier)]);

  // Per-user activity factor: heavy daily visitors to occasional ones.
  const double activity = rng.lognormal(0.0, 0.6);
  const Duration user_mean_gap =
      seconds_f(to_seconds(params.mean_visit_gap) * activity);

  // Poisson visit process over [0, horizon), capped at max_visits. The
  // first visit lands one gap in (a user "arrives" mid-process rather
  // than everyone piling onto t=0).
  TimePoint t = TimePoint{} + workload::draw_visit_gap(user_mean_gap, rng);
  while (t.since_epoch() < params.horizon &&
         profile.visits.size() <
             static_cast<std::size_t>(params.max_visits)) {
    profile.visits.push_back(t);
    t += workload::draw_visit_gap(user_mean_gap, rng);
  }
  if (profile.visits.empty()) {
    // Horizon shorter than the first drawn gap: the user still shows up
    // once so every user contributes a cold load.
    profile.visits.push_back(TimePoint{});
  }
  return profile;
}

int edge_pop_of(std::uint64_t master_seed, std::uint64_t user_id, int pops) {
  if (pops <= 0) return 0;
  // Forked off the same per-user stream as the profile draw, on a salt of
  // its own so it never perturbs (or is perturbed by) profile sampling.
  constexpr std::uint64_t kEdgeStream = 0xed6eull;
  Rng rng = Rng(master_seed).fork(user_id).fork(kEdgeStream);
  return static_cast<int>(rng.uniform_int(0, pops - 1));
}

}  // namespace catalyst::fleet
