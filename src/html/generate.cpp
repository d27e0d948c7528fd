#include "html/generate.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "util/rng.h"
#include "util/strings.h"

namespace catalyst::html {

namespace {

constexpr std::string_view kWords[] = {
    "network", "latency",  "cache",   "resource", "browser", "server",
    "request", "response", "page",    "load",     "token",   "etag",
    "bytes",   "transfer", "round",   "trip",     "origin",  "header",
    "content", "version",  "fresh",   "stale",    "fetch",   "worker",
};

/// One generated CSS/JS padding line, formatted in place (no printf, no
/// temporary strings). Every line make_css/make_js emits fits in 64 bytes.
class LineWriter {
 public:
  LineWriter& put(std::string_view text) {
    std::memcpy(end_, text.data(), text.size());
    end_ += text.size();
    return *this;
  }

  template <typename Int>
  LineWriter& put_dec(Int value) {
    end_ = std::to_chars(end_, buf_ + sizeof buf_, value).ptr;
    return *this;
  }

  /// Six lowercase hex digits, zero-padded (a 24-bit colour).
  LineWriter& put_hex6(std::uint64_t value) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (int i = 5; i >= 0; --i, value >>= 4) end_[i] = kHex[value & 0xF];
    end_ += 6;
    return *this;
  }

  /// Appends the line to `out`, clipped so `out` never exceeds `limit`.
  void append_to(std::string& out, std::size_t limit) const {
    const auto size = static_cast<std::size_t>(end_ - buf_);
    out.append(buf_, std::min(size, limit - out.size()));
  }

 private:
  char buf_[64]{};
  char* end_ = buf_;
};

}  // namespace

std::string filler_text(ByteCount bytes, std::uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(bytes + 16);
  while (out.size() < bytes) {
    const auto& word =
        kWords[static_cast<std::size_t>(rng.uniform_int(0, 23))];
    out.append(word);
    out.push_back(' ');
  }
  out.resize(bytes);
  return out;
}

HtmlBuilder::HtmlBuilder(std::string title) : title_(std::move(title)) {}

HtmlBuilder& HtmlBuilder::add_stylesheet(std::string_view url) {
  head_ += str_format("<link rel=\"stylesheet\" href=\"%.*s\">\n",
                      static_cast<int>(url.size()), url.data());
  return *this;
}

HtmlBuilder& HtmlBuilder::add_script(std::string_view url, bool deferred) {
  body_ += str_format("<script src=\"%.*s\"%s></script>\n",
                      static_cast<int>(url.size()), url.data(),
                      deferred ? " defer" : "");
  return *this;
}

HtmlBuilder& HtmlBuilder::add_image(std::string_view url,
                                    std::string_view alt) {
  body_ += str_format("<img src=\"%.*s\" alt=\"%.*s\">\n",
                      static_cast<int>(url.size()), url.data(),
                      static_cast<int>(alt.size()), alt.data());
  return *this;
}

HtmlBuilder& HtmlBuilder::add_paragraph(std::string_view text) {
  body_ += "<p>";
  body_ += text;
  body_ += "</p>\n";
  return *this;
}

HtmlBuilder& HtmlBuilder::add_comment(std::string_view text) {
  body_ += "<!-- ";
  body_ += text;
  body_ += " -->\n";
  return *this;
}

HtmlBuilder& HtmlBuilder::pad_to(ByteCount total_bytes, std::uint64_t seed) {
  const std::string current = build();
  if (current.size() >= total_bytes) return *this;
  const ByteCount missing = total_bytes - current.size() - 9;  // <p></p>\n…
  if (missing > 0 && missing < total_bytes) {
    add_paragraph(filler_text(missing, seed));
  }
  return *this;
}

std::string HtmlBuilder::build() const {
  std::string out = "<!DOCTYPE html>\n<html>\n<head>\n";
  out += "<title>" + title_ + "</title>\n";
  out += head_;
  out += "</head>\n<body>\n";
  out += body_;
  out += "</body>\n</html>\n";
  return out;
}

std::string make_css(const std::vector<std::string>& image_urls,
                     const std::vector<std::string>& font_urls,
                     const std::vector<std::string>& imports,
                     ByteCount total_bytes, std::uint64_t seed) {
  std::string out;
  out.reserve(total_bytes);
  for (const std::string& import_url : imports) {
    out.append("@import url(\"").append(import_url).append("\");\n");
  }
  std::size_t i = 0;
  for (const std::string& font : font_urls) {
    out.append("@font-face { font-family: f").append(std::to_string(i++));
    out.append("; src: url(\"").append(font).append("\"); }\n");
  }
  i = 0;
  for (const std::string& img : image_urls) {
    out.append(".bg").append(std::to_string(i++));
    out.append(" { background-image: url(\"").append(img).append("\"); }\n");
  }
  // Pad with generated rules. Each line draws its values last field
  // first; that order is part of the content (changing it changes every
  // stylesheet body, ETag and golden digest).
  Rng rng(seed);
  while (out.size() < total_bytes) {
    const std::uint64_t color = rng.next_u64() & 0xFFFFFF;
    const std::int64_t margin = rng.uniform_int(0, 64);
    const std::uint64_t name = rng.next_u64() & 0xFFFF;
    LineWriter line;
    line.put(".c").put_dec(name).put(" { margin: ").put_dec(margin);
    line.put("px; color: #").put_hex6(color).put("; }\n");
    line.append_to(out, total_bytes);
  }
  out.resize(total_bytes);
  return out;
}

std::string make_js(const std::vector<std::string>& fetch_urls,
                    ByteCount total_bytes, std::uint64_t seed) {
  std::string out;
  out.reserve(total_bytes);
  out.append("\"use strict\";\n");
  for (const std::string& url : fetch_urls) {
    // The directive both documents intent and drives the simulation.
    out.append("/* @fetch ").append(url).append(" */ fetch(\"");
    out.append(url).append("\");\n");
  }
  // Pad with generated functions, drawing each line's values last field
  // first as make_css does.
  Rng rng(seed);
  while (out.size() < total_bytes) {
    const std::int64_t addend = rng.uniform_int(0, 255);
    const std::int64_t factor = rng.uniform_int(1, 97);
    const std::uint64_t name = rng.next_u64() & 0xFFFFF;
    LineWriter line;
    line.put("function f").put_dec(name).put("(x) { return x * ");
    line.put_dec(factor).put(" + ").put_dec(addend).put("; }\n");
    line.append_to(out, total_bytes);
  }
  out.resize(total_bytes);
  return out;
}

}  // namespace catalyst::html
