// CSS reference extraction: url(...) tokens and @import rules.
//
// The paper notes most resources "are deterministic and can be identified
// by parsing HTML and CSS files" — this is the CSS half. Both the server
// module (building the ETag map) and the browser (fetching fonts/images a
// stylesheet references) use it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace catalyst::html {

struct CssReference {
  std::string url;
  bool is_import = false;  // @import (another stylesheet) vs url() asset

  bool operator==(const CssReference&) const = default;
};

/// Scans stylesheet text for @import and url() references. Comments are
/// skipped; quoted and unquoted url() forms are handled; data: URLs are
/// ignored (they embed content, nothing to fetch).
std::vector<CssReference> extract_css_references(std::string_view css);

}  // namespace catalyst::html
