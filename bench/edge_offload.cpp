// Edge offload curves: what a shared multi-PoP edge tier buys as its
// capacity grows, for the status-quo Baseline and for Catalyst.
//
// For each (strategy, edge capacity) point the fleet replays the same user
// population (same seed, same visit timelines, same user→PoP mapping)
// through a small edge tier, and reports revisit PLT p50/p95, the
// origin-offload percentage (requests answered without an upstream fetch),
// origin bytes, and the coalesced-fetch count. A no-edge point per
// strategy anchors each curve. Output is a stable JSON document on stdout;
// progress and timing go to stderr.
//
// Determinism: users map to PoPs as a pure function of (seed, user_id),
// and shards are partitioned by PoP, so every point is bit-identical
// across reruns and thread counts.
//
// CATALYST_EDGE_USERS overrides the per-point fleet size (default 96).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "edge/node.h"
#include "fleet/runner.h"
#include "netsim/transport.h"
#include "util/json.h"

using namespace catalyst;

namespace {

int fleet_users() {
  if (const char* env = std::getenv("CATALYST_EDGE_USERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 96;
}

Json run_point(core::StrategyKind strategy, ByteCount capacity,
               bool admission, std::uint64_t users, int threads,
               ByteCount flash_capacity = 0,
               Duration flash_latency = microseconds(100), int pops = 4) {
  fleet::FleetParams params;
  params.strategy = strategy;
  params.baseline = strategy;  // no comparison replay; the curve compares
  params.shard_size = 32;
  if (capacity > 0) {
    params.edge.pops = pops;
    params.edge.capacity = capacity;
    params.edge.admission = admission;
    params.edge.flash_capacity = flash_capacity;
    params.edge.flash_read_latency = flash_latency;
  }

  fleet::FleetRunner runner(params, users, threads);
  const fleet::FleetReport report = runner.run();

  fleet::EdgePopReport edge;
  for (const auto& [pop, s] : report.edge_pops) edge.merge(s);

  Json point = Json::object();
  point.set("edge_capacity_mb",
            Json::number(static_cast<double>(capacity) / (1024.0 * 1024.0)));
  point.set("plt_p50_ms", Json::number(report.plt_ms.percentile(50)));
  point.set("plt_p95_ms", Json::number(report.plt_ms.percentile(95)));
  point.set("edge_requests",
            Json::number(static_cast<double>(edge.requests)));
  point.set("origin_offload_pct", Json::number(edge.origin_offload_pct()));
  point.set("origin_fetches",
            Json::number(static_cast<double>(edge.origin_fetches)));
  point.set("origin_not_modified",
            Json::number(static_cast<double>(edge.origin_not_modified)));
  point.set("bytes_from_origin",
            Json::number(static_cast<double>(edge.bytes_from_origin)));
  point.set("coalesced", Json::number(static_cast<double>(edge.coalesced)));
  point.set("evictions", Json::number(static_cast<double>(edge.evictions)));
  point.set("admission_rejects",
            Json::number(static_cast<double>(edge.admission_rejects)));
  // Per-tier hit rates: where answered requests were actually served.
  auto pct = [&edge](std::uint64_t n) {
    return edge.requests == 0
               ? 0.0
               : 100.0 * static_cast<double>(n) /
                     static_cast<double>(edge.requests);
  };
  point.set("ram_hit_pct", Json::number(pct(edge.hits)));
  point.set("flash_hit_pct", Json::number(pct(edge.flash_hits)));
  if (flash_capacity > 0) {
    point.set("flash_capacity_mb",
              Json::number(static_cast<double>(flash_capacity) /
                           (1024.0 * 1024.0)));
    point.set("flash_read_lat_us",
              Json::number(static_cast<double>(flash_latency.count()) /
                           1000.0));
    point.set("flash_demotions",
              Json::number(static_cast<double>(edge.flash_demotions)));
    point.set("flash_promotions",
              Json::number(static_cast<double>(edge.flash_promotions)));
    point.set("flash_write_amp", Json::number(edge.flash_write_amp()));
    point.set("aio_reads", Json::number(static_cast<double>(edge.aio_reads)));
    point.set("aio_merged_reads",
              Json::number(static_cast<double>(edge.aio_merged_reads)));
    point.set("aio_queue_waits",
              Json::number(static_cast<double>(edge.aio_queue_waits)));
  }
  return point;
}

/// Fleet replay is user-major (one client at a time per PoP), so the
/// fleet-level coalesced counter is structurally zero there. This probe
/// shows the mechanism itself: N clients miss on the same resource in the
/// same instant, and the PoP issues exactly one origin fetch.
Json coalescing_probe(int clients) {
  netsim::EventLoop loop;
  netsim::Network network(loop);
  network.add_host("client");
  network.add_host("origin.example");
  edge::EdgePop pop{edge::EdgeConfig{}};
  network.add_host(pop.host_name());
  network.set_rtt("client", pop.host_name(), milliseconds(20));
  network.set_rtt(pop.host_name(), "origin.example", milliseconds(30));
  network.host("origin.example")
      .set_handler([&loop](const http::Request&,
                           std::function<void(netsim::ServerReply)> respond) {
        netsim::ServerReply reply;
        reply.response = http::Response::make(http::Status::Ok);
        reply.response.body = std::string(20000, 'x');
        reply.response.headers.set(http::kEtagHeader, "\"v1\"");
        reply.response.headers.set(http::kCacheControl, "max-age=300");
        reply.response.finalize(loop.now());
        respond(std::move(reply));
      });
  edge::EdgeNode node(pop, network, "origin.example");

  std::vector<std::unique_ptr<netsim::Connection>> conns;
  for (int i = 0; i < clients; ++i) {
    conns.push_back(std::make_unique<netsim::Connection>(
        network, "client", pop.host_name(), /*tls=*/false,
        netsim::Protocol::H1));
    conns.back()->send_request(
        http::Request::get("/hot.js", pop.host_name()),
        [](http::Response) {});
  }
  loop.run();

  const edge::EdgePopStats stats = pop.stats();
  Json probe = Json::object();
  probe.set("clients", Json::number(clients));
  probe.set("origin_fetches",
            Json::number(static_cast<double>(stats.origin_fetches)));
  probe.set("coalesced", Json::number(static_cast<double>(stats.coalesced)));
  return probe;
}

/// The flash-tier complement of the coalescing probe: N clients miss in
/// RAM on a flash-resident object in the same instant. The device reads
/// the object once — later requests merge into the pending op — and every
/// client is served from that single read.
Json flash_merge_probe(int clients) {
  netsim::EventLoop loop;
  netsim::Network network(loop);
  network.add_host("client");
  network.add_host("origin.example");
  edge::EdgeConfig ec;
  ec.flash.capacity = MiB(8);
  edge::EdgePop pop{ec};
  network.add_host(pop.host_name());
  network.set_rtt("client", pop.host_name(), milliseconds(20));
  network.set_rtt(pop.host_name(), "origin.example", milliseconds(30));
  edge::EdgeNode node(pop, network, "origin.example");

  // Plant a fresh object directly in the flash log, as if demoted there
  // by an earlier RAM eviction.
  http::Response stored = http::Response::make(http::Status::Ok);
  stored.body = std::string(20000, 'x');
  stored.headers.set(http::kEtagHeader, "\"v1\"");
  stored.headers.set(http::kCacheControl, "max-age=300");
  stored.finalize(loop.now());
  cache::CacheEntry entry;
  entry.response = std::move(stored);
  entry.request_time = loop.now();
  entry.response_time = loop.now();
  pop.flash()->put("origin.example/hot.js", std::move(entry));

  std::vector<std::unique_ptr<netsim::Connection>> conns;
  for (int i = 0; i < clients; ++i) {
    conns.push_back(std::make_unique<netsim::Connection>(
        network, "client", pop.host_name(), /*tls=*/false,
        netsim::Protocol::H1));
    conns.back()->send_request(
        http::Request::get("/hot.js", pop.host_name()),
        [](http::Response) {});
  }
  loop.run();

  const edge::EdgePopStats stats = pop.stats();
  Json probe = Json::object();
  probe.set("clients", Json::number(clients));
  probe.set("flash_hits",
            Json::number(static_cast<double>(stats.flash_hits)));
  probe.set("flash_coalesced",
            Json::number(static_cast<double>(stats.flash_coalesced)));
  probe.set("device_reads",
            Json::number(static_cast<double>(stats.aio_reads)));
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const auto users = static_cast<std::uint64_t>(
      smoke ? std::min(fleet_users(), 24) : fleet_users());
  const int threads = std::max(1u, std::thread::hardware_concurrency());
  // 0 = no edge tier (the anchor point of each curve).
  const std::vector<ByteCount> capacities =
      smoke ? std::vector<ByteCount>{0, MiB(16)}
            : std::vector<ByteCount>{0, MiB(4), MiB(16), MiB(64), MiB(256)};

  const struct {
    core::StrategyKind kind;
    const char* name;
  } strategies[] = {
      {core::StrategyKind::Baseline, "baseline"},
      {core::StrategyKind::Catalyst, "catalyst"},
  };

  const auto t0 = std::chrono::steady_clock::now();
  Json curves = Json::object();
  for (const auto& strategy : strategies) {
    Json curve = Json::array();
    for (const ByteCount capacity : capacities) {
      std::fprintf(stderr, "edge_offload: %s capacity=%lluMiB (%llu users)\n",
                   strategy.name,
                   static_cast<unsigned long long>(capacity / MiB(1)),
                   static_cast<unsigned long long>(users));
      curve.push_back(
          run_point(strategy.kind, capacity, /*admission=*/true, users,
                    threads));
    }
    curves.set(strategy.name, std::move(curve));
  }

  // FLASH sweep: two PoPs with a deliberately starved RAM tier (1 MiB,
  // evicting constantly — so demotion feeds the log a real working set)
  // backed by a growing flash capacity, at a fast-NVMe and a
  // congested-device latency. The 0 anchor per latency curve is the
  // RAM-only PoP.
  // 4 MiB sits below the demoted working set, so GC churns (write amp >
  // 1, salvage rewrites); 32+ MiB holds it whole and the curve plateaus.
  const std::vector<ByteCount> flash_caps =
      smoke ? std::vector<ByteCount>{0, MiB(4), MiB(32)}
            : std::vector<ByteCount>{0, MiB(4), MiB(32), MiB(128)};
  const std::vector<Duration> flash_lats = {microseconds(100),
                                            microseconds(2000)};
  Json flash_sweep = Json::array();
  for (const Duration lat : flash_lats) {
    for (const ByteCount fcap : flash_caps) {
      std::fprintf(stderr,
                   "edge_offload: flash=%lluMiB lat=%lldus (%llu users)\n",
                   static_cast<unsigned long long>(fcap / MiB(1)),
                   static_cast<long long>(lat.count() / 1000),
                   static_cast<unsigned long long>(users));
      Json point = run_point(core::StrategyKind::Catalyst, MiB(1),
                             /*admission=*/true, users, threads, fcap, lat,
                             /*pops=*/2);
      point.set("lat_us",
                Json::number(static_cast<double>(lat.count()) / 1000.0));
      flash_sweep.push_back(std::move(point));
    }
  }

  // Admission ablation: the mid-size tier with TinyLFU disabled, showing
  // what the doorkeeper buys against one-hit-wonder traffic.
  Json ablation = Json::array();
  if (!smoke) {
    for (const auto& strategy : strategies) {
      std::fprintf(stderr, "edge_offload: %s no-admission (%llu users)\n",
                   strategy.name, static_cast<unsigned long long>(users));
      Json point = run_point(strategy.kind, MiB(16), /*admission=*/false,
                             users, threads);
      point.set("strategy", Json::string(strategy.name));
      ablation.push_back(std::move(point));
    }
  }

  Json doc = Json::object();
  doc.set("users_per_point", Json::number(static_cast<double>(users)));
  doc.set("edge_pops", Json::number(4));
  doc.set("curves", std::move(curves));
  doc.set("flash_sweep_ram1mb", std::move(flash_sweep));
  if (!smoke) doc.set("no_admission_16mb", std::move(ablation));
  doc.set("coalescing_probe", coalescing_probe(/*clients=*/8));
  doc.set("flash_merge_probe", flash_merge_probe(/*clients=*/8));
  std::printf("%s\n", doc.dump().c_str());

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(stderr, "edge_offload: %.1f s wall\n", secs);
  return 0;
}
