#include "util/url.h"

#include "util/strings.h"

namespace catalyst {

namespace {

bool valid_scheme(std::string_view s) {
  if (s.empty() || !ascii_isalpha(s[0])) return false;
  for (char c : s) {
    if (!ascii_isalpha(c) && !ascii_isdigit(c) && c != '+' && c != '-' &&
        c != '.') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<Url> Url::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  for (char c : text) {
    if (ascii_isspace(c)) return std::nullopt;
  }
  Url url;

  // Fragments never reach the server; drop them.
  if (const auto hash = text.find('#'); hash != std::string_view::npos) {
    text = text.substr(0, hash);
  }

  // scheme ':' "//"  — detect an absolute URL.
  const auto colon = text.find(':');
  std::string_view rest = text;
  if (colon != std::string_view::npos &&
      text.substr(colon + 1).substr(0, 2) == "//" &&
      valid_scheme(text.substr(0, colon))) {
    url.scheme = to_lower(text.substr(0, colon));
    rest = text.substr(colon + 3);
  } else if (starts_with(text, "//")) {
    // Network-path reference: inherit scheme at resolve time.
    rest = text.substr(2);
  } else {
    // Relative reference: path [ '?' query ].
    const auto q = text.find('?');
    url.path = std::string(q == std::string_view::npos ? text
                                                       : text.substr(0, q));
    if (q != std::string_view::npos) url.query = std::string(text.substr(q + 1));
    return url;
  }

  // authority [ path [ '?' query ] ]
  const auto path_start = rest.find('/');
  const auto query_start = rest.find('?');
  std::string_view authority =
      rest.substr(0, std::min(path_start, query_start));
  if (authority.empty()) return std::nullopt;

  const auto port_sep = authority.rfind(':');
  if (port_sep != std::string_view::npos) {
    std::uint64_t port = 0;
    if (!parse_u64(authority.substr(port_sep + 1), port) || port > 65535) {
      return std::nullopt;
    }
    url.port = static_cast<std::uint16_t>(port);
    authority = authority.substr(0, port_sep);
  }
  if (authority.empty()) return std::nullopt;
  url.host = to_lower(authority);

  if (path_start == std::string_view::npos) {
    url.path = "/";
    if (query_start != std::string_view::npos) {
      url.query = std::string(rest.substr(query_start + 1));
    }
  } else {
    std::string_view tail = rest.substr(path_start);
    const auto q = tail.find('?');
    url.path =
        std::string(q == std::string_view::npos ? tail : tail.substr(0, q));
    if (q != std::string_view::npos) url.query = std::string(tail.substr(q + 1));
  }
  return url;
}

std::string remove_dot_segments(std::string_view path) {
  std::vector<std::string_view> out;
  const bool absolute = !path.empty() && path[0] == '/';
  bool trailing_slash = false;
  for (std::string_view seg : split(path, '/')) {
    if (seg == "." || seg.empty()) {
      trailing_slash = true;
      continue;
    }
    if (seg == "..") {
      if (!out.empty()) out.pop_back();
      trailing_slash = true;
      continue;
    }
    out.push_back(seg);
    trailing_slash = false;
  }
  std::string result = absolute ? "/" : "";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) result.push_back('/');
    result.append(out[i]);
  }
  if (trailing_slash && !out.empty()) result.push_back('/');
  if (result.empty()) result = absolute ? "/" : "";
  return result;
}

Url Url::resolve(const Url& reference) const {
  if (reference.is_absolute()) {
    Url r = reference;
    r.path = remove_dot_segments(r.path.empty() ? "/" : r.path);
    return r;
  }
  Url result;
  result.scheme = scheme;
  if (!reference.host.empty()) {
    // Network-path reference.
    result.host = reference.host;
    result.port = reference.port;
    result.path = remove_dot_segments(
        reference.path.empty() ? "/" : reference.path);
    result.query = reference.query;
    return result;
  }
  result.host = host;
  result.port = port;
  if (reference.path.empty()) {
    result.path = path;
    result.query =
        reference.query.empty() ? query : reference.query;
    return result;
  }
  if (reference.path[0] == '/') {
    result.path = remove_dot_segments(reference.path);
  } else {
    // Merge with the base path's directory.
    const auto slash = path.rfind('/');
    std::string merged =
        (slash == std::string::npos ? "/" : path.substr(0, slash + 1));
    merged += reference.path;
    result.path = remove_dot_segments(merged);
  }
  result.query = reference.query;
  return result;
}

std::string Url::origin() const {
  std::string out = scheme + "://" + host;
  const std::uint16_t def = (scheme == "https") ? 443
                            : (scheme == "http") ? 80
                                                 : 0;
  if (port != 0 && port != def) {
    out += ":" + std::to_string(port);
  }
  return out;
}

std::string Url::path_and_query() const {
  std::string out;
  append_path_and_query(out);
  return out;
}

void Url::append_path_and_query(std::string& out) const {
  if (path.empty()) {
    out.push_back('/');
  } else {
    out.append(path);
  }
  if (!query.empty()) {
    out.push_back('?');
    out.append(query);
  }
}

std::string Url::to_string() const {
  if (!is_absolute()) return path_and_query();
  return origin() + path_and_query();
}

}  // namespace catalyst
