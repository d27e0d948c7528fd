#include <gtest/gtest.h>

#include "server/push_module.h"
#include "server/session.h"

namespace catalyst::server {
namespace {

TEST(SessionStoreTest, LearnsAcrossVisitWindows) {
  SessionStore store;
  // Visit 1 of session s1 on /index.html.
  store.begin_visit("s1", "/index.html");
  store.record_fetch("s1", "/index.html", "/a.css");
  store.record_fetch("s1", "/index.html", "/lazy.json");
  // Nothing learned yet (the window has not closed).
  EXPECT_TRUE(store.learned_urls("s1", "/index.html").empty());

  // Visit 2 starts: visit 1's fetches become the learned set.
  store.begin_visit("s1", "/index.html");
  const auto learned = store.learned_urls("s1", "/index.html");
  ASSERT_EQ(learned.size(), 2u);
  EXPECT_EQ(learned[0], "/a.css");
  EXPECT_EQ(learned[1], "/lazy.json");
}

TEST(SessionStoreTest, ReplacesOnNextWindow) {
  SessionStore store;
  store.begin_visit("s1", "/p");
  store.record_fetch("s1", "/p", "/old.js");
  store.begin_visit("s1", "/p");
  store.record_fetch("s1", "/p", "/new.js");
  store.begin_visit("s1", "/p");
  const auto learned = store.learned_urls("s1", "/p");
  ASSERT_EQ(learned.size(), 1u);
  EXPECT_EQ(learned[0], "/new.js");
}

TEST(SessionStoreTest, EmptyObservationKeepsPreviousCommit) {
  SessionStore store;
  store.begin_visit("s1", "/p");
  store.record_fetch("s1", "/p", "/a.js");
  store.begin_visit("s1", "/p");  // commits {a.js}
  store.begin_visit("s1", "/p");  // nothing observed: keep {a.js}
  EXPECT_EQ(store.learned_urls("s1", "/p").size(), 1u);
}

TEST(SessionStoreTest, SessionsAndPagesIsolated) {
  SessionStore store;
  store.begin_visit("s1", "/p");
  store.record_fetch("s1", "/p", "/x");
  store.begin_visit("s1", "/p");
  EXPECT_TRUE(store.learned_urls("s2", "/p").empty());
  EXPECT_TRUE(store.learned_urls("s1", "/q").empty());
  EXPECT_EQ(store.session_count(), 1u);
}

TEST(SessionCookieTest, RoundTrip) {
  EXPECT_EQ(parse_session_cookie(make_session_cookie("user-42")),
            "user-42");
  EXPECT_EQ(parse_session_cookie("theme=dark; sid=u9; lang=en"), "u9");
  EXPECT_EQ(parse_session_cookie("theme=dark"), "");
  EXPECT_EQ(parse_session_cookie(""), "");
}

std::unique_ptr<Site> push_site() {
  auto site = std::make_unique<Site>("example.com");
  auto add = [&](const std::string& path, http::ResourceClass rc,
                 const std::string& content) {
    site->add_resource(std::make_unique<Resource>(
        path, rc, content.size(),
        [content](std::uint64_t) { return content; },
        ChangeProcess::never(), http::CacheControl::with_max_age(hours(1))));
  };
  add("/index.html", http::ResourceClass::Html,
      "<html><link rel=\"stylesheet\" href=\"/a.css\">"
      "<img src=\"/b.webp\"></html>");
  add("/a.css", http::ResourceClass::Css, ".x{}");
  add("/b.webp", http::ResourceClass::Image, "img");
  add("/lazy.json", http::ResourceClass::Json, "{}");
  return site;
}

TEST(PushModuleTest, PushAllPushesStaticClosure) {
  auto site = push_site();
  CatalystModule linker(*site, {});
  StaticHandler handler(*site);
  PushModule push(*site, PushPolicy::All);
  const auto pushes = push.build_pushes(
      http::Request::get("/index.html", "example.com"),
      *site->find("/index.html"), TimePoint{}, linker, {}, handler);
  ASSERT_EQ(pushes.size(), 2u);
  EXPECT_EQ(pushes[0].target, "/a.css");
  EXPECT_EQ(pushes[1].target, "/b.webp");
  EXPECT_EQ(pushes[0].response.status, http::Status::Ok);
  EXPECT_GT(pushes[0].response.wire_size(), 0u);
}

TEST(PushModuleTest, LearnedPolicyUsesSessionList) {
  auto site = push_site();
  CatalystModule linker(*site, {});
  StaticHandler handler(*site);
  PushModule push(*site, PushPolicy::Learned);
  const auto pushes = push.build_pushes(
      http::Request::get("/index.html", "example.com"),
      *site->find("/index.html"), TimePoint{}, linker,
      {"/a.css", "/lazy.json", "/missing.js"}, handler);
  ASSERT_EQ(pushes.size(), 2u);  // missing.js skipped
  EXPECT_EQ(pushes[0].target, "/a.css");
  EXPECT_EQ(pushes[1].target, "/lazy.json");
}

TEST(PushModuleTest, NonePushesNothing) {
  auto site = push_site();
  CatalystModule linker(*site, {});
  StaticHandler handler(*site);
  PushModule push(*site, PushPolicy::None);
  EXPECT_TRUE(push.build_pushes(
                  http::Request::get("/index.html", "example.com"),
                  *site->find("/index.html"), TimePoint{}, linker,
                  {"/a.css"}, handler)
                  .empty());
}

}  // namespace
}  // namespace catalyst::server
