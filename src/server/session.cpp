#include "server/session.h"

#include "util/strings.h"

namespace catalyst::server {

void SessionStore::record_fetch(const std::string& session,
                                const std::string& page_path,
                                const std::string& url) {
  sessions_[session][page_path].observing.insert(url);
}

std::vector<std::string> SessionStore::learned_urls(
    const std::string& session, const std::string& page_path) const {
  const auto session_it = sessions_.find(session);
  if (session_it == sessions_.end()) return {};
  const auto page_it = session_it->second.find(page_path);
  if (page_it == session_it->second.end()) return {};
  const PageLog& log = page_it->second;
  return {log.committed.begin(), log.committed.end()};
}

void SessionStore::begin_visit(const std::string& session,
                               const std::string& page_path) {
  PageLog& log = sessions_[session][page_path];
  if (!log.observing.empty()) {
    log.committed = std::move(log.observing);
    log.observing.clear();
  }
}

std::string make_session_cookie(const std::string& session_id) {
  return "sid=" + session_id;
}

std::string parse_session_cookie(std::string_view cookie_header) {
  for (std::string_view piece : split(cookie_header, ';')) {
    piece = trim(piece);
    if (starts_with(piece, "sid=")) {
      return std::string(piece.substr(4));
    }
  }
  return {};
}

}  // namespace catalyst::server
