// Synthetic website generation: builds Site objects whose HTML/CSS/JS
// bodies genuinely cross-reference each other, with per-resource change
// processes and cache-header policies.
//
// This is the stand-in for the paper's clones of the 100 most-visited
// homepages: the same code paths (DOM scan on the server, dependency
// resolution in the browser) run on this content as would run on the real
// pages.
#pragma once

#include <memory>

#include "server/site.h"
#include "server/ttl_policy.h"
#include "workload/profiles.h"

namespace catalyst::workload {

struct SitegenParams {
  std::uint64_t seed = 1;
  int site_index = 0;

  /// How cache headers get assigned (the paper's motivation assumes
  /// ConservativeCms-like behaviour in the wild).
  server::TtlProfile ttl_profile = server::TtlProfile::ConservativeCms;

  /// Static-clone hosting, mirroring the paper's methodology (§4): the
  /// 100 homepages were saved and served as files from one Caddy server,
  /// so even API-ish JSON payloads become static files with CMS-default
  /// headers rather than live no-store endpoints. Default off (live-site
  /// semantics); the Figure-3 benches turn it on to match the paper.
  bool clone_static_snapshot = false;

  /// Fraction of images/scripts/fonts hosted on third-party origins
  /// (CDNs, ad networks). Cross-origin resources are outside the
  /// X-Etag-Config map (explicitly future work in the paper §6), so this
  /// knob measures the coverage loss. 0 reproduces the paper's
  /// single-origin clone hosting.
  double third_party_fraction = 0.0;

  /// Broken-link / error-response model. Real homepages reference dead
  /// resources (link rot) and retired endpoints; the fractions below make
  /// the synthetic sites do the same so negative caching has something to
  /// cache. All draws come from a dedicated RNG stream, so all-zero
  /// fractions leave the generated site byte-identical to a build without
  /// the error model.
  struct ErrorModel {
    /// Per existing image/JSON slot: probability of an *additional*
    /// reference to an unregistered path (origin answers 404).
    double dead_link_fraction = 0.0;
    /// Per existing image slot: probability of an additional reference to
    /// a retired path (origin answers 410 Gone).
    double gone_link_fraction = 0.0;
    /// Per JSON endpoint: probability it serves an error-page body with a
    /// 200 status (a "soft 404" — poison for naive caches, invisible to
    /// status-based negative caching).
    double soft404_fraction = 0.0;

    bool any() const {
      return dead_link_fraction > 0.0 || gone_link_fraction > 0.0 ||
             soft404_fraction > 0.0;
    }
  };
  ErrorModel errors;
};

/// A main site plus the third-party origins its page references.
struct SiteBundle {
  std::shared_ptr<server::Site> main;
  std::vector<std::shared_ptr<server::Site>> third_party;
};

/// Generates a site together with its third-party origins (empty when
/// third_party_fraction == 0).
SiteBundle generate_site_bundle(const SitegenParams& params);

/// Generates one deterministic synthetic site ("siteNN.example").
std::shared_ptr<server::Site> generate_site(const SitegenParams& params);

/// The exact worked example of the paper's Figure 1: index.html linking
/// a.css and b.js; b.js fetches c.js when executed; c.js fetches d.jpg.
/// Headers per the figure: a.css max-age=1week, b.js no-cache, d.jpg
/// max-age=2h with a content change 1h in, c.js max-age=1week.
std::shared_ptr<server::Site> make_figure1_site();

}  // namespace catalyst::workload
