#include "client/service_worker.h"

#include <gtest/gtest.h>

namespace catalyst::client {
namespace {

using http::Etag;
using http::Response;
using http::Status;

Response ok_with_etag(const std::string& etag) {
  Response resp = Response::make(Status::Ok);
  resp.body = "body-" + etag;
  resp.headers.set(http::kEtagHeader, "\"" + etag + "\"");
  resp.finalize(TimePoint{});
  return resp;
}

Response navigation_with_map(const std::string& map_json) {
  Response resp = Response::make(Status::Ok);
  resp.headers.set(http::kXEtagConfig, map_json);
  return resp;
}

TEST(ServiceWorkerTest, RegistrationLifecycle) {
  CatalystServiceWorker sw;
  EXPECT_FALSE(sw.registered());
  sw.set_registered();
  EXPECT_TRUE(sw.registered());
  sw.unregister();
  EXPECT_FALSE(sw.registered());
  EXPECT_EQ(sw.current_map(), nullptr);
}

TEST(ServiceWorkerTest, InstallsMapFromNavigationResponse) {
  CatalystServiceWorker sw;
  EXPECT_EQ(sw.install_map_from(
                navigation_with_map("{\"/a.css\":\"\\\"v1\\\"\"}")),
            CatalystServiceWorker::MapInstall::Installed);
  ASSERT_NE(sw.current_map(), nullptr);
  EXPECT_EQ(sw.current_map()->size(), 1u);
}

TEST(ServiceWorkerTest, MalformedMapIgnored) {
  CatalystServiceWorker sw;
  sw.install_map_from(navigation_with_map("{not json"));
  EXPECT_EQ(sw.current_map(), nullptr);
  sw.install_map_from(Response::make(Status::Ok));  // no header
  EXPECT_EQ(sw.current_map(), nullptr);
}

TEST(ServiceWorkerTest, NewMapReplacesOld) {
  CatalystServiceWorker sw;
  sw.install_map_from(navigation_with_map("{\"/a\":\"\\\"v1\\\"\"}"));
  sw.install_map_from(navigation_with_map("{\"/b\":\"\\\"v2\\\"\"}"));
  EXPECT_FALSE(sw.current_map()->find("/a"));
  EXPECT_TRUE(sw.current_map()->find("/b"));
}

TEST(ServiceWorkerTest, ServesOnlyMapVouchedCacheHits) {
  using Decision = CatalystServiceWorker::Decision;
  CatalystServiceWorker sw;
  sw.observe_response("/a.css", ok_with_etag("v1"), TimePoint{});
  sw.observe_response("/b.js", ok_with_etag("v1"), TimePoint{});
  sw.install_map_from(navigation_with_map(
      "{\"/a.css\":\"\\\"v1\\\"\",\"/b.js\":\"\\\"v2\\\"\"}"));

  // Covered + matching: served.
  const auto hit = sw.try_serve("/a.css", TimePoint{});
  EXPECT_EQ(hit.decision, Decision::ServeFromCache);
  ASSERT_NE(hit.response, nullptr);
  EXPECT_EQ(hit.response->body.str(), "body-v1");
  // Covered but changed on origin: forwarded with revalidation (the map
  // overrides any TTL freshness).
  EXPECT_EQ(sw.try_serve("/b.js", TimePoint{}).decision, Decision::ForwardRevalidate);
  // Not covered by the map: plain fetch semantics.
  EXPECT_EQ(sw.try_serve("/c.json", TimePoint{}).decision, Decision::ForwardDefault);
}

TEST(ServiceWorkerTest, CoveredButUncachedForwardsWithRevalidation) {
  using Decision = CatalystServiceWorker::Decision;
  CatalystServiceWorker sw;
  sw.install_map_from(navigation_with_map("{\"/a.css\":\"\\\"v1\\\"\"}"));
  EXPECT_EQ(sw.try_serve("/a.css", TimePoint{}).decision, Decision::ForwardRevalidate);
}

TEST(ServiceWorkerTest, NoMapForwardsEverything) {
  using Decision = CatalystServiceWorker::Decision;
  CatalystServiceWorker sw;
  sw.observe_response("/a.css", ok_with_etag("v1"), TimePoint{});
  const auto result = sw.try_serve("/a.css", TimePoint{});
  EXPECT_EQ(result.decision, Decision::ForwardDefault);
  EXPECT_EQ(result.response, nullptr);
}

TEST(ServiceWorkerTest, ObserveIgnoresNonOkAndNoStore) {
  CatalystServiceWorker sw;
  Response not_modified = Response::make(Status::NotModified);
  sw.observe_response("/a", not_modified, TimePoint{});
  EXPECT_FALSE(sw.cache().contains("/a"));

  Response no_store = ok_with_etag("v1");
  no_store.headers.set(http::kCacheControl, "no-store");
  sw.observe_response("/b", no_store, TimePoint{});
  EXPECT_FALSE(sw.cache().contains("/b"));
}

}  // namespace
}  // namespace catalyst::client
