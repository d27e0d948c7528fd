#include "html/scan.h"

#include <unordered_map>

#include "html/parser.h"

namespace catalyst::html {

namespace {

struct BodyKey {
  std::uint64_t digest = 0;
  std::size_t size = 0;
  bool operator==(const BodyKey&) const = default;
};

struct BodyKeyHash {
  // The FNV-1a digest is already a well-mixed hash of the bytes.
  std::size_t operator()(const BodyKey& key) const {
    return static_cast<std::size_t>(key.digest);
  }
};

/// std::unordered_map, not FlatHashMap: callers keep references into it.
template <class Result>
using ScanMemo = std::unordered_map<BodyKey, Result, BodyKeyHash>;

struct ScanMemos {
  ScanMemo<PageScan> pages;
  ScanMemo<std::vector<CssReference>> stylesheets;
  ScanMemo<std::vector<std::string>> scripts;
};

ScanMemos& tls_memos() {
  thread_local ScanMemos memos;
  return memos;
}

template <class Result, class Scan>
const Result& memoized(ScanMemo<Result>& memo, std::string_view body,
                       std::uint64_t digest, Scan scan) {
  const BodyKey key{digest, body.size()};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  return memo.emplace(key, scan(body)).first->second;
}

}  // namespace

const PageScan& scan_page(std::string_view body, std::uint64_t digest) {
  return memoized(tls_memos().pages, body, digest, [](std::string_view html) {
    const auto document = parse(html);
    PageScan scan;
    scan.resources = extract_resources(*document);
    document->for_each_element([&scan](const Node& el) {
      if (el.is_element("script") && !el.has_attr("src")) {
        for (std::string& url : extract_js_fetches(el.text_content())) {
          scan.inline_fetches.push_back(std::move(url));
        }
      }
    });
    return scan;
  });
}

const std::vector<CssReference>& scan_css(std::string_view body,
                                          std::uint64_t digest) {
  return memoized(tls_memos().stylesheets, body, digest,
                  extract_css_references);
}

const std::vector<std::string>& scan_js(std::string_view body,
                                        std::uint64_t digest) {
  return memoized(tls_memos().scripts, body, digest, extract_js_fetches);
}

void clear_scan_memo() { tls_memos() = ScanMemos{}; }

}  // namespace catalyst::html
