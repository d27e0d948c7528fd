// Synthetic content generation: real HTML/CSS/JS text with declared
// subresources.
//
// The workload layer synthesizes "top-100 homepage" clones with these
// builders; because the output is genuine markup, the same parsing code
// paths run on the server (ETag map construction) and in the browser
// (dependency discovery) as would run on real pages.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace catalyst::html {

/// Deterministic pseudo-prose filler of exactly `bytes` bytes (seeded so
/// content — and therefore ETags — are stable across runs).
std::string filler_text(ByteCount bytes, std::uint64_t seed);

/// Incremental HTML page builder.
class HtmlBuilder {
 public:
  explicit HtmlBuilder(std::string title);

  HtmlBuilder& add_stylesheet(std::string_view url);
  HtmlBuilder& add_script(std::string_view url, bool deferred = false);
  HtmlBuilder& add_image(std::string_view url, std::string_view alt = "");
  HtmlBuilder& add_paragraph(std::string_view text);
  HtmlBuilder& add_comment(std::string_view text);

  /// Pads the body with filler prose so the page reaches `total_bytes`
  /// (no-op if the page is already larger).
  HtmlBuilder& pad_to(ByteCount total_bytes, std::uint64_t seed);

  std::string build() const;

 private:
  std::string title_;
  std::string head_;
  std::string body_;
};

/// A stylesheet referencing the given asset URLs via url()/@import,
/// padded with plausible rule text to `total_bytes`.
std::string make_css(const std::vector<std::string>& image_urls,
                     const std::vector<std::string>& font_urls,
                     const std::vector<std::string>& imports,
                     ByteCount total_bytes, std::uint64_t seed);

/// A script that "fetches" the given URLs when executed (via the
/// `@fetch <url>` directive convention), padded to `total_bytes`.
std::string make_js(const std::vector<std::string>& fetch_urls,
                    ByteCount total_bytes, std::uint64_t seed);

}  // namespace catalyst::html
