// Testbed assembly: network topology + origin server + browser wired for
// one (site, network conditions, strategy) combination.
#pragma once

#include <memory>

#include "check/oracle.h"
#include "client/browser.h"
#include "core/rdr_proxy.h"
#include "core/strategy.h"
#include "edge/node.h"
#include "netsim/conditions.h"
#include "netsim/event_loop.h"
#include "netsim/network.h"
#include "server/server.h"
#include "workload/adversary.h"
#include "workload/sitegen.h"

namespace catalyst::core {

struct Testbed {
  std::unique_ptr<netsim::EventLoop> loop;
  std::unique_ptr<netsim::Network> network;
  // Fault-injection plan the network points at (only when
  // conditions.faults.any(); nullptr on clean runs).
  std::unique_ptr<netsim::FaultPlan> faults;
  std::shared_ptr<server::Site> site;
  std::unique_ptr<server::Server> origin;
  std::unique_ptr<RdrProxy> proxy;  // RdrProxy strategy only
  // Binding of the shared edge PoP onto this testbed's network (only when
  // options.edge_pop is set; the PoP itself is owned by the caller).
  std::unique_ptr<edge::EdgeNode> edge_node;
  // Third-party origins (multi-origin bundles only).
  std::vector<std::shared_ptr<server::Site>> third_party_sites;
  std::vector<std::unique_ptr<server::Server>> third_party_servers;
  // Byte-equivalence oracle (only when options.byte_oracle; the browser's
  // serve classifier points into it).
  std::unique_ptr<check::ByteOracle> byte_oracle;
  // Scripted attacker against the edge PoP (only when
  // options.adversary.enabled and an edge tier exists). run_visit fires
  // one strike ahead of every page load.
  std::unique_ptr<workload::Adversary> adversary;
  std::unique_ptr<client::Browser> browser;
  Url page_url;   // what the user "types": the origin page
  Url fetch_url;  // what the browser actually fetches (proxy for RDR)
  StrategyKind kind = StrategyKind::Baseline;
  netsim::NetworkConditions conditions;
};

/// Builds a ready-to-run testbed. The Site is shared (its change timeline
/// must be identical across the strategies being compared).
Testbed make_testbed(std::shared_ptr<server::Site> site,
                     const netsim::NetworkConditions& conditions,
                     StrategyKind kind,
                     const StrategyOptions& options = {});

/// Multi-origin variant: also brings up plain origin servers for every
/// third-party site, reachable at 0.6 × the client-origin RTT (CDNs peer
/// closer than the main origin).
Testbed make_testbed(const workload::SiteBundle& bundle,
                     const netsim::NetworkConditions& conditions,
                     StrategyKind kind,
                     const StrategyOptions& options = {});

}  // namespace catalyst::core
