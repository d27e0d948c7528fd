// Cache-header assignment models — how developers/CMSs set TTLs.
//
// The paper's motivation cites measured misconfiguration: ~50% of cacheable
// resources are not effectively cached; 47% of resources expire unchanged
// [Marauder]; 40% of resources get TTL < 1 day of which 86% do not change
// within it [Liu et al.]. `ConservativeCms` is calibrated to land near
// those numbers (verified by bench/motivation_ttl_waste); the other
// profiles are ablation points.
#pragma once

#include <string_view>

#include "http/cache_control.h"
#include "http/mime.h"
#include "util/rng.h"
#include "util/types.h"

namespace catalyst::server {

enum class TtlProfile {
  /// Default CMS behaviour: a mix of no-store, no-cache and conservative
  /// short TTLs mostly uncorrelated with real change rates.
  ConservativeCms,
  /// A diligent developer: TTLs roughly track true change intervals
  /// (still imperfect — change times cannot actually be predicted).
  DeveloperTuned,
  /// Everything revalidates every time (no-cache) — worst case for RTTs.
  AlwaysRevalidate,
};

std::string_view to_string(TtlProfile profile);

/// Draws a Cache-Control policy for one resource. `mean_change_interval`
/// is the resource's true mean time between content changes (zero =
/// effectively immutable), which only DeveloperTuned gets to peek at.
http::CacheControl assign_cache_policy(TtlProfile profile,
                                       http::ResourceClass resource_class,
                                       Duration mean_change_interval,
                                       Rng& rng);

}  // namespace catalyst::server
