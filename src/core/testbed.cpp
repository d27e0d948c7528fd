#include "core/testbed.h"

#include <algorithm>
#include <map>

#include "server/catalyst_module.h"

namespace catalyst::core {

namespace {

/// RTT between the RDR proxy and origins (proxies sit in well-peered
/// clouds near the servers).
constexpr Duration kRdrOriginRtt = milliseconds(6);

/// Third-party origins sit this factor closer than the main origin
/// (multi-origin testbeds only).
constexpr double kThirdPartyRttScale = 0.6;

/// Both make_testbed overloads: the main site's testbed, then a stock
/// origin server per third-party site (none for a single-site testbed).
Testbed build_testbed(
    std::shared_ptr<server::Site> site,
    const std::vector<std::shared_ptr<server::Site>>& third_party,
    const netsim::NetworkConditions& conditions, StrategyKind kind,
    const StrategyOptions& options) {
  Testbed tb;
  tb.kind = kind;
  tb.conditions = conditions;
  tb.site = std::move(site);
  tb.loop = std::make_unique<netsim::EventLoop>();
  tb.loop->set_recorder(options.phase_recorder);
  tb.network = std::make_unique<netsim::Network>(*tb.loop);
  tb.network->set_dns_lookup(options.dns_lookup);

  // Fault layer: pay-for-what-you-use. With all knobs zero, no plan is
  // created, transport takes its original paths, and the client runs
  // without timers/retries — output stays byte-identical to clean builds.
  if (conditions.faults.any()) {
    tb.faults = std::make_unique<netsim::FaultPlan>(conditions.faults);
    tb.network->set_fault_plan(tb.faults.get());
  }

  // Topology: throttled client access link; well-provisioned origin.
  netsim::HostSpec client_spec;
  client_spec.uplink = conditions.uplink;
  client_spec.downlink = conditions.downlink;
  tb.network->add_host("client", client_spec);
  tb.network->add_host(tb.site->host());  // default: 1 Gbps
  tb.network->set_rtt("client", tb.site->host(), conditions.rtt);

  // Origin server configuration by strategy.
  server::ServerConfig sc;
  switch (kind) {
    case StrategyKind::Baseline:
    case StrategyKind::Oracle:
    case StrategyKind::RdrProxy:
      break;
    case StrategyKind::Catalyst:
      sc.enable_catalyst = true;
      break;
    case StrategyKind::CatalystLearned:
      sc.enable_catalyst = true;
      sc.catalyst.session_learning = true;
      sc.track_sessions = true;
      break;
    case StrategyKind::PushAll:
      sc.push_policy = server::PushPolicy::All;
      break;
    case StrategyKind::PushLearned:
      sc.push_policy = server::PushPolicy::Learned;
      sc.track_sessions = true;
      break;
    case StrategyKind::PushDigest:
      sc.push_policy = server::PushPolicy::Digest;
      break;
    case StrategyKind::EarlyHints:
      sc.early_hints = true;
      break;
  }
  sc.catalyst.css_closure = options.catalyst_css_closure;
  sc.catalyst.memoize_scans = options.catalyst_memoize;
  // The adversary testbed models a reflection-vulnerable origin: whether
  // the attack lands then depends solely on the edge tier's cache keying.
  sc.reflect_forwarded_host = options.adversary.enabled;
  tb.origin = std::make_unique<server::Server>(*tb.network, tb.site, sc);

  // Browser configuration.
  client::BrowserConfig bc;
  bc.client_host = "client";
  bc.browser_id = "user-1";
  bc.service_workers_enabled = (kind == StrategyKind::Catalyst ||
                                kind == StrategyKind::CatalystLearned);
  if (kind == StrategyKind::PushAll || kind == StrategyKind::PushLearned ||
      kind == StrategyKind::PushDigest) {
    bc.fetcher.protocol = netsim::Protocol::H2;
    bc.send_cache_digest = (kind == StrategyKind::PushDigest);
  } else if (options.browser_protocol) {
    bc.fetcher.protocol = *options.browser_protocol;
  }
  if (options.mobile_client) {
    bc.processing = client::ProcessingModel::mobile();
  }
  // Under injected faults the browser needs deadlines + retries to
  // guarantee every visit completes.
  bc.fetcher.resilient = conditions.faults.any();
  bc.mutate_serve_stale = options.mutate_stale_serve;
  bc.negative = options.negative_cache;
  tb.browser = std::make_unique<client::Browser>(*tb.network, bc);

  // With an edge tier, main-origin traffic is addressed to the PoP's
  // host; remember it so audits can map those URLs back to the site.
  const std::string edge_host =
      (options.edge_pop != nullptr && kind != StrategyKind::RdrProxy)
          ? options.edge_pop->host_name()
          : std::string();

  // Byte-equivalence oracle: audits every delivered body against the
  // site's ground-truth content at fetch time. Measurement-only.
  if (options.byte_oracle) {
    tb.byte_oracle = std::make_unique<check::ByteOracle>();
    // A Catalyst origin legitimately rewrites HTML (SW-registration
    // snippet); ground truth must include the same transform or every
    // decorated serve would read as corruption.
    check::BodyTransform html_transform;
    if (sc.enable_catalyst) {
      html_transform = [](std::string& body) {
        server::CatalystModule::inject_registration(body);
      };
    }
    tb.byte_oracle->add_site(tb.site, html_transform);
    if (!edge_host.empty()) {
      tb.byte_oracle->add_alias(edge_host, tb.site, html_transform);
    }
    check::ByteOracle* oracle = tb.byte_oracle.get();
    tb.browser->set_serve_classifier(
        [oracle](const Url& url, const client::FetchOutcome& outcome) {
          return oracle->classify(url, outcome);
        });
  }

  tb.page_url.scheme = "https";
  tb.page_url.host = tb.site->host();
  tb.page_url.path = tb.site->index_path();
  tb.fetch_url = tb.page_url;

  if (kind == StrategyKind::Oracle) {
    // Perfect validation: compares the cached ETag against the origin's
    // current one with zero network cost.
    auto site_ref = tb.site;
    netsim::EventLoop* loop = tb.loop.get();
    tb.browser->set_oracle(
        [site_ref, loop](const Url& url, const http::Etag& cached) {
          const server::Resource* r = site_ref->find(url.path);
          return r != nullptr &&
                 r->etag_at(loop->now()).weak_equals(cached);
        });
  }

  if (kind == StrategyKind::RdrProxy) {
    const std::string proxy_host(kRdrProxyHost);
    tb.network->add_host(proxy_host);
    tb.network->set_rtt("client", proxy_host, conditions.rtt);
    tb.network->set_rtt(proxy_host, tb.site->host(), kRdrOriginRtt);
    tb.proxy = std::make_unique<RdrProxy>(*tb.network, tb.site);
    tb.fetch_url.host = proxy_host;
    tb.fetch_url.path = tb.site->index_path();
  }

  if (!edge_host.empty()) {
    edge::EdgePop& pop = *options.edge_pop;
    tb.network->add_host(pop.host_name());  // well-provisioned (1 Gbps)
    // The PoP sits on the path: the client-edge leg is what remains of the
    // access RTT after the edge-origin leg, floored at a quarter of the
    // full RTT (even a nearby PoP is not free to reach). A hit saves the
    // origin leg; a miss pays roughly the no-edge path.
    const Duration client_edge_rtt = std::max(
        conditions.rtt - options.edge_origin_rtt, conditions.rtt / 4);
    tb.network->set_rtt("client", pop.host_name(), client_edge_rtt);
    tb.network->set_rtt(pop.host_name(), tb.site->host(),
                        options.edge_origin_rtt);
    tb.edge_node =
        std::make_unique<edge::EdgeNode>(pop, *tb.network, tb.site->host());
    // Main-origin traffic terminates at the PoP; relative subresource
    // references resolve against the page URL, so they follow it there.
    tb.fetch_url.host = pop.host_name();
    tb.page_url.host = pop.host_name();

    if (options.adversary.enabled) {
      // The attacker parks close to the PoP (a well-placed vantage point
      // makes the timing side channel sharper, not weaker).
      const Duration attacker_rtt = milliseconds(10);
      tb.network->add_host(workload::Adversary::kHost);
      tb.network->set_rtt(workload::Adversary::kHost, pop.host_name(),
                          attacker_rtt);
      // Fresh H1+TLS connection: 2 handshake RTTs + 1 exchange RTT to the
      // PoP; an edge miss additionally pays the PoP-origin leg. Halfway
      // into that leg separates the two populations.
      const Duration hit_threshold =
          3 * attacker_rtt + options.edge_origin_rtt / 2;
      std::vector<std::string> targets;
      targets.push_back(tb.site->index_path());
      for (const auto& [path, resource] : tb.site->resources()) {
        if (path != tb.site->index_path()) targets.push_back(path);
      }
      tb.adversary = std::make_unique<workload::Adversary>(
          *tb.network, pop, std::move(targets), options.adversary,
          hit_threshold);
    }
  }

  const Duration tp_rtt =
      seconds_f(to_seconds(conditions.rtt) * kThirdPartyRttScale);
  for (const auto& tp : third_party) {
    tb.network->add_host(tp->host());
    tb.network->set_rtt("client", tp->host(), tp_rtt);
    if (tb.proxy) {
      tb.network->set_rtt(std::string(kRdrProxyHost), tp->host(),
                          kRdrOriginRtt);
    }
    // Third-party origins run stock servers: no catalyst, no push — the
    // main server has no authority over them (paper §6).
    tb.third_party_servers.push_back(std::make_unique<server::Server>(
        *tb.network, tp, server::ServerConfig{}));
    tb.third_party_sites.push_back(tp);
    if (tb.byte_oracle) tb.byte_oracle->add_site(tp);
  }

  // Measurement-only staleness audit: flags cache-served bytes that no
  // longer match the origin of their host (main, edge or third-party);
  // other hosts are unauditable. Never changes behaviour.
  std::map<std::string, std::shared_ptr<server::Site>> by_host;
  by_host[tb.site->host()] = tb.site;
  if (!edge_host.empty()) by_host[edge_host] = tb.site;
  for (const auto& tp : third_party) by_host[tp->host()] = tp;
  netsim::EventLoop* loop = tb.loop.get();
  tb.browser->set_staleness_audit(
      [by_host = std::move(by_host), loop](const Url& url,
                                           const http::Etag& etag) {
        const auto it = by_host.find(url.host);
        if (it == by_host.end()) return true;
        const server::Resource* r = it->second->find(url.path);
        return r == nullptr || r->etag_at(loop->now()).weak_equals(etag);
      });
  return tb;
}

}  // namespace

Testbed make_testbed(std::shared_ptr<server::Site> site,
                     const netsim::NetworkConditions& conditions,
                     StrategyKind kind, const StrategyOptions& options) {
  return build_testbed(std::move(site), {}, conditions, kind, options);
}

Testbed make_testbed(const workload::SiteBundle& bundle,
                     const netsim::NetworkConditions& conditions,
                     StrategyKind kind, const StrategyOptions& options) {
  return build_testbed(bundle.main, bundle.third_party, conditions, kind,
                       options);
}

}  // namespace catalyst::core
