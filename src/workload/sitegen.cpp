#include "workload/sitegen.h"

#include <algorithm>

#include "html/generate.h"
#include "util/hash.h"
#include "util/strings.h"
#include "workload/distributions.h"

namespace catalyst::workload {

namespace {

using server::ChangeProcess;
using server::Resource;
using server::Site;

/// Change processes are materialized over [0, kChangeHorizon).
constexpr Duration kChangeHorizon = days(30);

/// Distinct third-party origins a site spreads its external resources over.
constexpr int kThirdPartyOrigins = 3;

/// Stand-in content for opaque classes (images/fonts/json): small, unique
/// per (path, version) so ETags change exactly when the version does.
server::ContentGenerator opaque_generator(std::string path,
                                          std::uint64_t salt) {
  return [path = std::move(path), salt](std::uint64_t version) {
    return str_format("binary-stand-in %s v%llu salt %016llx", path.c_str(),
                      static_cast<unsigned long long>(version),
                      static_cast<unsigned long long>(salt));
  };
}

/// A "soft 404": the endpoint answers 200 with an error-page body. Caches
/// treat it as ordinary content — exactly the failure mode that makes
/// status-code-based negative caching insufficient on its own.
server::ContentGenerator soft404_generator(std::string path,
                                           std::uint64_t salt) {
  return [path = std::move(path), salt](std::uint64_t version) {
    return str_format(
        "{\"error\":\"not found\",\"path\":\"%s\",\"v\":%llu,"
        "\"salt\":\"%016llx\"}",
        path.c_str(), static_cast<unsigned long long>(version),
        static_cast<unsigned long long>(salt));
  };
}

ChangeProcess make_changes(Duration mean_interval, Duration horizon,
                           Rng& rng) {
  if (mean_interval <= Duration::zero()) return ChangeProcess::never();
  return ChangeProcess::poisson(mean_interval, horizon, rng);
}

struct ResourcePlan {
  std::string path;
  http::ResourceClass rc = http::ResourceClass::Other;
  ByteCount size = 0;
  Duration mean_change = Duration::zero();
  int tp_origin = -1;  // >= 0: hosted on third-party origin #N
};

std::string third_party_host(int origin) {
  return str_format("cdn%d.thirdparty", origin);
}

/// How the resource is referenced from the main site's content: a
/// same-origin path, or an absolute cross-origin URL.
std::string reference_url(const ResourcePlan& plan) {
  if (plan.tp_origin < 0) return plan.path;
  return "https://" + third_party_host(plan.tp_origin) + plan.path;
}

}  // namespace

std::shared_ptr<server::Site> generate_site(const SitegenParams& params) {
  return generate_site_bundle(params).main;
}

SiteBundle generate_site_bundle(const SitegenParams& params) {
  Rng rng(params.seed ^
          (0x5174e5ull * static_cast<std::uint64_t>(params.site_index + 1)));
  const PageArchetype archetype = draw_archetype(rng);
  const PageComposition comp = composition_for(archetype);

  const std::string host =
      str_format("site%02d.example", params.site_index);
  auto site = std::make_shared<Site>(host);
  site->set_index_path("/index.html");

  auto count = [&rng](int lo, int hi) {
    return static_cast<int>(rng.uniform_int(lo, hi));
  };
  const int n_css = count(comp.stylesheets_min, comp.stylesheets_max);
  const int n_js = count(comp.scripts_min, comp.scripts_max);
  const int n_img = count(comp.images_min, comp.images_max);
  const int n_font = count(comp.fonts_min, comp.fonts_max);
  const int n_json = count(comp.json_fetches_min, comp.json_fetches_max);
  const int n_lazy = std::max(0, comp.script_chain_depth - 1) * 2;

  std::vector<ResourcePlan> css(static_cast<std::size_t>(n_css));
  std::vector<ResourcePlan> js(static_cast<std::size_t>(n_js));
  std::vector<ResourcePlan> img(static_cast<std::size_t>(n_img));
  std::vector<ResourcePlan> font(static_cast<std::size_t>(n_font));
  std::vector<ResourcePlan> json(static_cast<std::size_t>(n_json));
  std::vector<ResourcePlan> lazy(static_cast<std::size_t>(n_lazy));

  auto plan = [&rng](std::vector<ResourcePlan>& out, http::ResourceClass rc,
                     const char* pattern) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].path = str_format(pattern, i);
      out[i].rc = rc;
      out[i].size = draw_size(rc, rng);
      out[i].mean_change = draw_change_interval(rc, rng);
    }
  };
  plan(css, http::ResourceClass::Css, "/assets/style%zu.css");
  plan(js, http::ResourceClass::Script, "/assets/app%zu.js");
  plan(img, http::ResourceClass::Image, "/img/pic%zu.webp");
  plan(font, http::ResourceClass::Font, "/fonts/face%zu.woff2");
  plan(json, http::ResourceClass::Json, "/api/data%zu.json");
  plan(lazy, http::ResourceClass::Script, "/assets/lazy%zu.js");

  // Spread the configured fraction of images/scripts/fonts over the
  // third-party origins (ad/CDN content). HTML, CSS, JSON and lazy-chain
  // scripts stay first-party.
  if (params.third_party_fraction > 0.0) {
    auto maybe_externalize = [&](std::vector<ResourcePlan>& plans) {
      for (ResourcePlan& r : plans) {
        if (rng.bernoulli(params.third_party_fraction)) {
          r.tp_origin = static_cast<int>(
              rng.uniform_int(0, kThirdPartyOrigins - 1));
        }
      }
    };
    maybe_externalize(img);
    maybe_externalize(js);
    maybe_externalize(font);
  }

  // --- Reference wiring -------------------------------------------------
  // ~20% of images live in stylesheets (backgrounds), the rest in HTML.
  std::vector<std::string> css_images, html_images;
  for (const ResourcePlan& r : img) {
    (rng.bernoulli(0.2) && n_css > 0 ? css_images : html_images)
        .push_back(reference_url(r));
  }
  // JSON fetches and lazy scripts are reached through JS execution only.
  // Round-robin them over the *first-party* top-level scripts (ad/CDN
  // scripts do not call back into the site's APIs).
  std::vector<std::size_t> fp_js;
  for (std::size_t i = 0; i < js.size(); ++i) {
    if (js[i].tp_origin < 0) fp_js.push_back(i);
  }
  std::vector<std::vector<std::string>> js_fetches(
      static_cast<std::size_t>(std::max(1, n_js)));
  auto fp_slot = [&fp_js, &js_fetches](std::size_t i) -> auto& {
    if (fp_js.empty()) return js_fetches[i % js_fetches.size()];
    return js_fetches[fp_js[i % fp_js.size()]];
  };
  for (std::size_t i = 0; i < json.size(); ++i) {
    fp_slot(i).push_back(json[i].path);
  }
  std::vector<std::vector<std::string>> lazy_fetches(lazy.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    // First-level lazies hang off top-level scripts; deeper ones chain.
    if (i < lazy.size() / 2 || lazy.size() < 2) {
      fp_slot(i).push_back(lazy[i].path);
    } else {
      lazy_fetches[i - lazy.size() / 2].push_back(lazy[i].path);
    }
  }
  // Give half the lazy scripts a trailing asset fetch (Fig. 1's d.jpg):
  // dedicated images only reachable through the JS chain.
  std::vector<ResourcePlan> chain_img;
  for (std::size_t i = 0; i < lazy.size(); i += 2) {
    ResourcePlan r;
    r.path = str_format("/img/lazy%zu.webp", i / 2);
    r.rc = http::ResourceClass::Image;
    r.size = draw_size(r.rc, rng);
    r.mean_change = draw_change_interval(r.rc, rng);
    lazy_fetches[i].push_back(r.path);
    chain_img.push_back(std::move(r));
  }

  // --- Error model ------------------------------------------------------
  // Dead links (404), retired paths (410), and soft-404 JSON endpoints.
  // All draws come from a dedicated stream keyed off the seed — never from
  // `rng` — so an all-zero error model leaves every downstream draw, and
  // therefore the generated site, byte-identical to a build without it.
  std::vector<bool> json_soft404(json.size(), false);
  if (params.errors.any()) {
    Rng error_rng(params.seed ^ 0xdead404ull ^
                  (0x51e5ull *
                   static_cast<std::uint64_t>(params.site_index + 1)));
    int dead = 0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      if (error_rng.bernoulli(params.errors.dead_link_fraction)) {
        html_images.push_back(str_format("/img/missing%d.webp", dead++));
      }
    }
    for (std::size_t i = 0; i < json.size(); ++i) {
      if (error_rng.bernoulli(params.errors.dead_link_fraction)) {
        fp_slot(json.size() + i)
            .push_back(str_format("/api/missing%d.json", dead++));
      }
    }
    int gone = 0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      if (error_rng.bernoulli(params.errors.gone_link_fraction)) {
        std::string path = str_format("/img/retired%d.webp", gone++);
        html_images.push_back(path);
        site->add_gone_path(std::move(path));
      }
    }
    for (std::size_t i = 0; i < json.size(); ++i) {
      json_soft404[i] =
          error_rng.bernoulli(params.errors.soft404_fraction);
    }
  }

  // --- Materialize resources --------------------------------------------
  const std::uint64_t site_salt = rng.next_u64();
  Rng policy_rng = rng.fork(1);
  Rng change_rng = rng.fork(2);

  // Third-party origins referenced by this page.
  std::vector<std::shared_ptr<Site>> tp_sites;
  for (int k = 0; k < kThirdPartyOrigins; ++k) {
    tp_sites.push_back(std::make_shared<Site>(third_party_host(k)));
  }

  auto add = [&](const ResourcePlan& r, server::ContentGenerator gen) {
    // In clone mode a JSON payload is just another saved file: it gets
    // static-file cache headers instead of live no-store semantics.
    const http::ResourceClass policy_class =
        (params.clone_static_snapshot &&
         r.rc == http::ResourceClass::Json)
            ? http::ResourceClass::Other
            : r.rc;
    auto policy = server::assign_cache_policy(params.ttl_profile,
                                              policy_class, r.mean_change,
                                              policy_rng);
    // A cloned snapshot's files never change during the experiment (the
    // paper advances the clock against a frozen copy); live mode runs the
    // real change processes.
    ChangeProcess changes =
        params.clone_static_snapshot
            ? ChangeProcess::never()
            : make_changes(r.mean_change, kChangeHorizon,
                           change_rng);
    Site& target =
        r.tp_origin < 0 ? *site
                        : *tp_sites[static_cast<std::size_t>(r.tp_origin)];
    target.add_resource(std::make_unique<Resource>(
        r.path, r.rc, r.size, std::move(gen), std::move(changes),
        std::move(policy)));
  };

  // Opaque classes.
  for (const auto& r : img) add(r, opaque_generator(r.path, site_salt));
  for (const auto& r : chain_img) {
    add(r, opaque_generator(r.path, site_salt));
  }
  for (const auto& r : font) add(r, opaque_generator(r.path, site_salt));
  for (std::size_t i = 0; i < json.size(); ++i) {
    add(json[i], json_soft404[i]
                     ? soft404_generator(json[i].path, site_salt)
                     : opaque_generator(json[i].path, site_salt));
  }

  // Stylesheets: distribute css_images and fonts across files.
  for (std::size_t i = 0; i < css.size(); ++i) {
    std::vector<std::string> my_images, my_fonts;
    for (std::size_t k = i; k < css_images.size();
         k += std::max<std::size_t>(1, css.size())) {
      my_images.push_back(css_images[k]);
    }
    for (std::size_t k = i; k < font.size();
         k += std::max<std::size_t>(1, css.size())) {
      my_fonts.push_back(reference_url(font[k]));
    }
    const ByteCount size = css[i].size;
    const std::uint64_t seed = site_salt ^ fnv1a64(css[i].path);
    add(css[i],
        [my_images, my_fonts, size, seed](std::uint64_t version) {
          return html::make_css(my_images, my_fonts, {}, size,
                                seed + version * 0x9e37ull);
        });
  }

  // Scripts.
  auto script_generator = [site_salt](std::vector<std::string> fetches,
                                      ByteCount size, std::string path) {
    const std::uint64_t seed = site_salt ^ fnv1a64(path);
    return [fetches = std::move(fetches), size,
            seed](std::uint64_t version) {
      return html::make_js(fetches, size, seed + version * 0x9e37ull);
    };
  };
  for (std::size_t i = 0; i < js.size(); ++i) {
    add(js[i], script_generator(js_fetches[i], js[i].size, js[i].path));
  }
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    add(lazy[i],
        script_generator(lazy_fetches[i], lazy[i].size, lazy[i].path));
  }

  // The base HTML.
  ResourcePlan html_plan;
  html_plan.path = "/index.html";
  html_plan.rc = http::ResourceClass::Html;
  html_plan.size = draw_size(http::ResourceClass::Html, rng);
  html_plan.mean_change =
      draw_change_interval(http::ResourceClass::Html, rng);

  std::vector<std::string> css_paths, js_paths;
  std::vector<bool> js_blocking;
  for (const auto& r : css) css_paths.push_back(r.path);
  for (const auto& r : js) {
    js_paths.push_back(reference_url(r));
    // Third-party scripts ship async (ads/analytics best practice).
    js_blocking.push_back(r.tp_origin < 0 &&
                          rng.next_double() <
                              comp.blocking_script_fraction);
  }
  const std::string title =
      str_format("%s — %s homepage", host.c_str(),
                 std::string(to_string(archetype)).c_str());
  const ByteCount html_size = html_plan.size;
  add(html_plan, [css_paths, js_paths, js_blocking, html_images, title,
                  html_size, site_salt](std::uint64_t version) {
    html::HtmlBuilder builder(title);
    for (const std::string& path : css_paths) builder.add_stylesheet(path);
    for (std::size_t i = 0; i < js_paths.size(); ++i) {
      builder.add_script(js_paths[i], /*deferred=*/!js_blocking[i]);
    }
    for (const std::string& path : html_images) builder.add_image(path);
    builder.add_comment(str_format(
        "content revision %llu", static_cast<unsigned long long>(version)));
    builder.pad_to(html_size, site_salt ^ (version * 0x517cull));
    return builder.build();
  });

  // Drop third-party origins the page never ended up referencing.
  std::vector<std::shared_ptr<Site>> used_tp;
  for (auto& tp : tp_sites) {
    if (tp->resource_count() > 0) used_tp.push_back(std::move(tp));
  }
  return SiteBundle{std::move(site), std::move(used_tp)};
}

std::shared_ptr<server::Site> make_figure1_site() {
  auto site = std::make_shared<Site>("example.com");
  site->set_index_path("/index.html");

  // a.css: max-age = 1 week, never changes in the window.
  site->add_resource(std::make_unique<Resource>(
      "/a.css", http::ResourceClass::Css, KiB(30),
      [](std::uint64_t version) {
        return html::make_css({}, {}, {}, KiB(30), 0xA0 + version);
      },
      ChangeProcess::never(),
      http::CacheControl::with_max_age(days(7))));

  // b.js: no-cache (must revalidate every use); fetches c.js when run.
  site->add_resource(std::make_unique<Resource>(
      "/b.js", http::ResourceClass::Script, KiB(40),
      [](std::uint64_t version) {
        return html::make_js({"/c.js"}, KiB(40), 0xB0 + version);
      },
      ChangeProcess::never(), http::CacheControl::revalidate_always()));

  // c.js: cacheable for a week; fetches d.jpg when run.
  site->add_resource(std::make_unique<Resource>(
      "/c.js", http::ResourceClass::Script, KiB(25),
      [](std::uint64_t version) {
        return html::make_js({"/d.jpg"}, KiB(25), 0xC0 + version);
      },
      ChangeProcess::never(),
      http::CacheControl::with_max_age(days(7))));

  // d.jpg: max-age = 2 hours; its content changes 1 hour in, so a revisit
  // 2+ hours later finds it both expired *and* changed (Fig. 1b).
  site->add_resource(std::make_unique<Resource>(
      "/d.jpg", http::ResourceClass::Image, KiB(80),
      [](std::uint64_t version) {
        return str_format("jpeg-stand-in /d.jpg v%llu",
                          static_cast<unsigned long long>(version));
      },
      ChangeProcess::periodic(days(365), hours(1), days(365)),
      http::CacheControl::with_max_age(hours(2))));

  // index.html: no-cache; links a.css and b.js.
  site->add_resource(std::make_unique<Resource>(
      "/index.html", http::ResourceClass::Html, KiB(12),
      [](std::uint64_t version) {
        html::HtmlBuilder builder("Figure 1 example");
        builder.add_stylesheet("/a.css");
        builder.add_script("/b.js");
        builder.add_comment(str_format(
            "revision %llu", static_cast<unsigned long long>(version)));
        builder.pad_to(KiB(12), 0xF16);
        return builder.build();
      },
      ChangeProcess::never(), http::CacheControl::revalidate_always()));

  return site;
}

}  // namespace catalyst::workload
