// The origin web server: binds a Site to a simulated network host and
// composes the static handler with the optional CacheCatalyst and
// Server-Push modules — the stand-in for the paper's modified Caddy.
#pragma once

#include <memory>
#include <string>

#include "netsim/network.h"
#include "server/catalyst_module.h"
#include "server/push_module.h"
#include "server/session.h"
#include "server/site.h"
#include "server/static_handler.h"

namespace catalyst::server {

struct ServerConfig {
  bool enable_catalyst = false;
  CatalystConfig catalyst;

  PushPolicy push_policy = PushPolicy::None;

  /// Send 103 Early Hints with Link rel=preload targets (the static link
  /// closure) ahead of base-HTML responses.
  bool early_hints = false;

  /// Record per-session fetch logs (needed by catalyst session learning
  /// and the Learned push policy).
  bool track_sessions = false;

  /// Adversary testbed: reflect the X-Forwarded-Host request header into
  /// 200 bodies (origins behind proxy layers compose absolute URLs from
  /// it). Harmless end-to-end; poisonous once a shared cache keyed
  /// without the header stores the result.
  bool reflect_forwarded_host = false;
};

struct ServerStats {
  /// Modeled server compute CacheCatalyst added (map builds, injection).
  Duration catalyst_compute = Duration::zero();
};

class Server {
 public:
  /// Registers `site.host()` on the network and installs the handler.
  /// The host must already exist in the network.
  Server(netsim::Network& network, std::shared_ptr<Site> site,
         ServerConfig config);

  const Site& site() const { return *site_; }
  const ServerConfig& config() const { return config_; }
  const ServerStats& stats() const { return stats_; }
  SessionStore& sessions() { return sessions_; }

 private:
  void handle(const http::Request& request,
              std::function<void(netsim::ServerReply)> respond);

  netsim::Network& network_;
  std::shared_ptr<Site> site_;
  ServerConfig config_;
  StaticHandler handler_;
  std::unique_ptr<CatalystModule> catalyst_;
  std::unique_ptr<PushModule> push_;
  SessionStore sessions_;
  ServerStats stats_;
};

}  // namespace catalyst::server
