// Per-client session tracking (paper §3 & §6 future work): the server
// records which URLs each client fetched during a page visit, so on a
// revisit the X-Etag-Config map can also cover resources only discovered
// by JavaScript execution ("dynamic and user-specific resources").
//
// Clients are recognized by an opaque session id the browser sends in a
// Cookie header — the "session management techniques" the paper refers to.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/types.h"

namespace catalyst::server {

class SessionStore {
 public:
  /// Records that `session` fetched `url` while loading `page_path`.
  void record_fetch(const std::string& session, const std::string& page_path,
                    const std::string& url);

  /// URLs previously observed for (session, page); empty when unknown.
  std::vector<std::string> learned_urls(const std::string& session,
                                        const std::string& page_path) const;

  /// Marks the start of a fresh observation window for (session, page):
  /// subsequent record_fetch calls replace the previous visit's list once
  /// the window closes on the next begin_visit.
  void begin_visit(const std::string& session, const std::string& page_path);

  std::size_t session_count() const { return sessions_.size(); }

 private:
  struct PageLog {
    std::set<std::string> committed;  // last completed visit
    std::set<std::string> observing;  // current visit being recorded
  };

  std::map<std::string, std::map<std::string, PageLog>> sessions_;
};

/// Cookie header helpers for the opaque session id.
std::string make_session_cookie(const std::string& session_id);
std::string parse_session_cookie(std::string_view cookie_header);

}  // namespace catalyst::server
