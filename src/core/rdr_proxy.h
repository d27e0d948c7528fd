// Remote-dependency-resolution proxy baseline (paper §5).
//
// The proxy runs a headless browser on a cloud host with a low-latency
// path to the origin: it resolves the full dependency graph there, then
// ships the whole page to the client as one bundle. Great on cold,
// high-latency loads; oblivious to client caches on revisits (the
// critique the paper makes).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "client/browser.h"
#include "netsim/network.h"
#include "server/site.h"

namespace catalyst::core {

/// Header carrying bundle composition so the client can model its local
/// compute (parse/exec) without unpacking a real container format.
inline constexpr std::string_view kBundleMetaHeader = "X-Bundle-Meta";

/// Network host the proxy runs on.
inline constexpr std::string_view kRdrProxyHost = "rdr.proxy";

class RdrProxy {
 public:
  /// Registers kRdrProxyHost's handler. The host must exist in the
  /// network, with RTTs configured to both client and origin.
  RdrProxy(netsim::Network& network, std::shared_ptr<server::Site> site);

  std::uint64_t loads_performed() const { return loads_; }

 private:
  void handle(const http::Request& request,
              std::function<void(netsim::ServerReply)> respond);

  netsim::Network& network_;
  std::shared_ptr<server::Site> site_;
  std::uint64_t loads_ = 0;
  // One headless browser per in-flight load (no cross-user caching).
  std::vector<std::unique_ptr<client::Browser>> active_browsers_;
};

}  // namespace catalyst::core
