#include "server/ttl_policy.h"

#include <algorithm>

namespace catalyst::server {

std::string_view to_string(TtlProfile profile) {
  switch (profile) {
    case TtlProfile::ConservativeCms:
      return "conservative-cms";
    case TtlProfile::DeveloperTuned:
      return "developer-tuned";
    case TtlProfile::AlwaysRevalidate:
      return "always-revalidate";
  }
  return "?";
}

namespace {

http::CacheControl conservative_cms(http::ResourceClass resource_class,
                                    Rng& rng) {
  // HTML entry points: typically not cached (fresh on every visit).
  if (resource_class == http::ResourceClass::Html) {
    return rng.bernoulli(0.7) ? http::CacheControl::revalidate_always()
                              : http::CacheControl::never_store();
  }
  // Dynamic payloads: usually uncacheable.
  if (resource_class == http::ResourceClass::Json) {
    return rng.bernoulli(0.8) ? http::CacheControl::never_store()
                              : http::CacheControl::revalidate_always();
  }
  // Mix calibrated to the misconfiguration studies the paper cites:
  // ~half of cacheable resources are not effectively cached (no-store or
  // no-cache) [Liu et al., Qian et al.], ~40% of those with TTLs get
  // TTL < 1 day [Liu et al.], and TTLs are uncorrelated with true change
  // rates. no-store skews towards images/media (ad and tracking content
  // dominates the redundant-transfer byte counts of [18, 24, 29]).
  double p_no_store = 0.08;
  switch (resource_class) {
    case http::ResourceClass::Image:
      p_no_store = 0.22;
      break;
    case http::ResourceClass::Script:
      p_no_store = 0.12;
      break;
    case http::ResourceClass::Css:
      p_no_store = 0.05;
      break;
    case http::ResourceClass::Font:
      p_no_store = 0.02;
      break;
    default:
      break;
  }
  const double roll = rng.next_double();
  if (roll < p_no_store) return http::CacheControl::never_store();
  if (roll < p_no_store + 0.30) {
    return http::CacheControl::revalidate_always();
  }
  // Of the resources that do get a TTL, ~40% land under one day (the
  // conservative bucket), ~30% at 1-7 days, the rest at weeks-to-a-year.
  if (roll < p_no_store + 0.30 + 0.26) {
    static constexpr std::int64_t kShortTtlMinutes[] = {5, 30, 60, 240,
                                                        720, 1080};
    const auto idx = static_cast<std::size_t>(rng.uniform_int(0, 5));
    return http::CacheControl::with_max_age(
        minutes(kShortTtlMinutes[idx]));
  }
  if (roll < p_no_store + 0.30 + 0.26 + 0.19) {
    return http::CacheControl::with_max_age(days(rng.uniform_int(1, 7)));
  }
  return http::CacheControl::with_max_age(days(rng.uniform_int(30, 365)));
}

http::CacheControl developer_tuned(http::ResourceClass resource_class,
                                   Duration mean_change_interval, Rng& rng) {
  if (resource_class == http::ResourceClass::Html ||
      resource_class == http::ResourceClass::Json) {
    return http::CacheControl::revalidate_always();
  }
  if (mean_change_interval <= Duration::zero()) {
    return http::CacheControl::store_forever();
  }
  // Knows the mean change interval but not actual change times, so hedges
  // to a fraction of it (under-estimation is the safe direction).
  const double fraction = rng.uniform(0.25, 0.75);
  const Duration ttl = std::max<Duration>(
      minutes(1), seconds_f(to_seconds(mean_change_interval) * fraction));
  return http::CacheControl::with_max_age(std::min(ttl, days(365)));
}

}  // namespace

http::CacheControl assign_cache_policy(TtlProfile profile,
                                       http::ResourceClass resource_class,
                                       Duration mean_change_interval,
                                       Rng& rng) {
  switch (profile) {
    case TtlProfile::ConservativeCms:
      return conservative_cms(resource_class, rng);
    case TtlProfile::DeveloperTuned:
      return developer_tuned(resource_class, mean_change_interval, rng);
    case TtlProfile::AlwaysRevalidate:
      return http::CacheControl::revalidate_always();
  }
  return http::CacheControl{};
}

}  // namespace catalyst::server
