#include "fleet/report.h"

#include "util/strings.h"
#include "util/table.h"

namespace catalyst::fleet {

namespace {

/// Fixed stat set serialized for every Summary. An empty summary emits
/// count=0 only, so "no baseline run" cannot produce NaN-dependent bytes.
Json summary_json(const Summary& s) {
  Json j = Json::object();
  j.set("count", Json::number(static_cast<double>(s.count())));
  if (!s.empty()) {
    j.set("mean", Json::number(s.mean()));
    j.set("min", Json::number(s.min()));
    j.set("p50", Json::number(s.percentile(50)));
    j.set("p95", Json::number(s.percentile(95)));
    j.set("p99", Json::number(s.percentile(99)));
    j.set("max", Json::number(s.max()));
  }
  return j;
}

std::string stat_row(const Summary& s) {
  if (s.empty()) return "(no samples)";
  return str_format("mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f", s.mean(),
                    s.percentile(50), s.percentile(95), s.percentile(99));
}

/// Per-phase quantile object: only phases with samples appear, so a run
/// that never touched flash (say) emits no "flash_io" key. Everything is
/// computed from integer bucket counts, so the bytes are a pure function
/// of the merged histograms — bit-identical for any --threads.
Json phases_json(const obs::PhaseBreakdown& b) {
  Json obj = Json::object();
  for (obs::Phase p : obs::kAllPhases) {
    const obs::PhaseHistogram& h = b.of(p);
    if (h.empty()) continue;
    Json e = Json::object();
    e.set("count", Json::number(static_cast<double>(h.count())));
    e.set("total_ms",
          Json::number(static_cast<double>(h.total_ns()) / 1e6));
    e.set("p50_ms", Json::number(h.quantile_ms(50)));
    e.set("p95_ms", Json::number(h.quantile_ms(95)));
    e.set("p99_ms", Json::number(h.quantile_ms(99)));
    obj.set(std::string(obs::to_string(p)), std::move(e));
  }
  return obj;
}

}  // namespace

void FleetReport::merge(const FleetReport& other) {
  users += other.users;
  visits += other.visits;
  revisits += other.revisits;
  counters.merge(other.counters);
  faults.merge(other.faults);
  oracle.merge(other.oracle);
  negative_hits += other.negative_hits;
  for (const auto& [user, trace] : other.traces) {
    traces.emplace(user, trace);
  }
  for (const auto& [pop, stats] : other.edge_pops) {
    edge_pops[pop].merge(stats);
  }
  events_executed += other.events_executed;
  phases.merge(other.phases);
  baseline_phases.merge(other.baseline_phases);
  prof.merge(other.prof);
  bytes_on_wire += other.bytes_on_wire;
  baseline_bytes_on_wire += other.baseline_bytes_on_wire;
  rtts += other.rtts;
  baseline_rtts += other.baseline_rtts;
  plt_ms.merge(other.plt_ms);
  plt_reduction_pct.merge(other.plt_reduction_pct);
  per_user_plt_reduction_pct.merge(other.per_user_plt_reduction_pct);
  per_user_hit_rate_pct.merge(other.per_user_hit_rate_pct);
}

Json FleetReport::to_json() const {
  Json j = Json::object();
  j.set("users", Json::number(static_cast<double>(users)));
  j.set("visits", Json::number(static_cast<double>(visits)));
  j.set("revisits", Json::number(static_cast<double>(revisits)));

  Json c = Json::object();
  c.set("from_network", Json::number(static_cast<double>(counters.from_network)));
  c.set("from_cache", Json::number(static_cast<double>(counters.from_cache)));
  c.set("not_modified", Json::number(static_cast<double>(counters.not_modified)));
  c.set("from_sw_cache", Json::number(static_cast<double>(counters.from_sw_cache)));
  c.set("from_push", Json::number(static_cast<double>(counters.from_push)));
  c.set("stale_served", Json::number(static_cast<double>(counters.stale_served)));
  j.set("revisit_fetches", std::move(c));

  // Only present on faulty runs: zero-fault reports must serialize to the
  // exact bytes they produced before the fault layer existed.
  if (faults.any()) {
    Json f = Json::object();
    f.set("timeouts", Json::number(static_cast<double>(faults.timeouts)));
    f.set("retries", Json::number(static_cast<double>(faults.retries)));
    f.set("connection_failures",
          Json::number(static_cast<double>(faults.connection_failures)));
    f.set("fallback_revalidations",
          Json::number(static_cast<double>(faults.fallback_revalidations)));
    f.set("failed_loads",
          Json::number(static_cast<double>(faults.failed_loads)));
    j.set("faults", std::move(f));
  }

  // Only present when the byte-equivalence oracle audited something:
  // oracle-off reports must serialize to their pre-oracle bytes.
  if (oracle.any()) {
    Json o = Json::object();
    o.set("checked", Json::number(static_cast<double>(oracle.checked)));
    o.set("allowed_stale",
          Json::number(static_cast<double>(oracle.allowed_stale)));
    o.set("violations",
          Json::number(static_cast<double>(oracle.violations)));
    // Security subclasses only when present, so pre-adversary oracle
    // reports keep their exact bytes.
    if (oracle.poisoned_serves != 0) {
      o.set("poisoned_serves",
            Json::number(static_cast<double>(oracle.poisoned_serves)));
    }
    if (oracle.cross_user_leaks != 0) {
      o.set("cross_user_leaks",
            Json::number(static_cast<double>(oracle.cross_user_leaks)));
    }
    j.set("oracle", std::move(o));
  }

  // Only present when negative caching answered something.
  if (negative_hits != 0) {
    j.set("negative_hits",
          Json::number(static_cast<double>(negative_hits)));
  }

  // Only present on edge-enabled runs: edge-off reports must serialize to
  // the exact bytes they produced before the edge tier existed.
  if (!edge_pops.empty()) {
    EdgePopReport total;
    Json per_pop = Json::array();
    for (const auto& [pop, s] : edge_pops) {  // std::map: ascending pop id
      total.merge(s);
      Json p = Json::object();
      p.set("pop", Json::number(static_cast<double>(pop)));
      p.set("requests", Json::number(static_cast<double>(s.requests)));
      p.set("hits", Json::number(static_cast<double>(s.hits)));
      p.set("origin_fetches",
            Json::number(static_cast<double>(s.origin_fetches)));
      p.set("evictions", Json::number(static_cast<double>(s.evictions)));
      if (s.flash_enabled) {
        p.set("flash_hits", Json::number(static_cast<double>(s.flash_hits)));
        p.set("flash_write_amp", Json::number(s.flash_write_amp()));
      }
      per_pop.push_back(std::move(p));
    }
    Json e = Json::object();
    e.set("pops", Json::number(static_cast<double>(edge_pops.size())));
    e.set("requests", Json::number(static_cast<double>(total.requests)));
    e.set("hits", Json::number(static_cast<double>(total.hits)));
    e.set("revalidated_hits",
          Json::number(static_cast<double>(total.revalidated_hits)));
    e.set("misses", Json::number(static_cast<double>(total.misses)));
    e.set("coalesced", Json::number(static_cast<double>(total.coalesced)));
    e.set("origin_fetches",
          Json::number(static_cast<double>(total.origin_fetches)));
    e.set("origin_not_modified",
          Json::number(static_cast<double>(total.origin_not_modified)));
    e.set("origin_errors",
          Json::number(static_cast<double>(total.origin_errors)));
    e.set("admission_rejects",
          Json::number(static_cast<double>(total.admission_rejects)));
    e.set("stores", Json::number(static_cast<double>(total.stores)));
    e.set("evictions", Json::number(static_cast<double>(total.evictions)));
    e.set("bytes_served",
          Json::number(static_cast<double>(total.bytes_served)));
    e.set("bytes_from_origin",
          Json::number(static_cast<double>(total.bytes_from_origin)));
    e.set("origin_offload_pct", Json::number(total.origin_offload_pct()));
    // Negative-cache and adversary blocks only when those features ran,
    // so pre-existing edge reports keep their exact bytes.
    if (total.negative_stores != 0 || total.negative_hits != 0) {
      Json n = Json::object();
      n.set("stores",
            Json::number(static_cast<double>(total.negative_stores)));
      n.set("hits", Json::number(static_cast<double>(total.negative_hits)));
      e.set("negative", std::move(n));
    }
    if (total.adversary_requests != 0 || total.adversary_probes != 0) {
      Json a = Json::object();
      a.set("requests",
            Json::number(static_cast<double>(total.adversary_requests)));
      a.set("probes",
            Json::number(static_cast<double>(total.adversary_probes)));
      a.set("probe_hits",
            Json::number(static_cast<double>(total.adversary_probe_hits)));
      e.set("adversary", std::move(a));
    }
    // Flash tier block only on flash-enabled runs: RAM-only edge reports
    // must serialize to the exact bytes they produced before the flash
    // tier existed.
    if (total.flash_enabled) {
      Json fl = Json::object();
      fl.set("hits", Json::number(static_cast<double>(total.flash_hits)));
      fl.set("coalesced",
             Json::number(static_cast<double>(total.flash_coalesced)));
      fl.set("demotions",
             Json::number(static_cast<double>(total.flash_demotions)));
      fl.set("promotions",
             Json::number(static_cast<double>(total.flash_promotions)));
      fl.set("promotion_rejects",
             Json::number(static_cast<double>(total.flash_promotion_rejects)));
      fl.set("stores", Json::number(static_cast<double>(total.flash_stores)));
      fl.set("evictions",
             Json::number(static_cast<double>(total.flash_evictions)));
      fl.set("gc_rewrites",
             Json::number(static_cast<double>(total.flash_gc_rewrites)));
      fl.set("bytes_served",
             Json::number(static_cast<double>(total.flash_bytes_served)));
      fl.set("host_bytes_written",
             Json::number(static_cast<double>(total.flash_host_bytes)));
      fl.set("device_bytes_written",
             Json::number(static_cast<double>(total.flash_device_bytes)));
      fl.set("write_amp", Json::number(total.flash_write_amp()));
      Json aio = Json::object();
      aio.set("reads", Json::number(static_cast<double>(total.aio_reads)));
      aio.set("writes", Json::number(static_cast<double>(total.aio_writes)));
      aio.set("merged_reads",
              Json::number(static_cast<double>(total.aio_merged_reads)));
      aio.set("queue_waits",
              Json::number(static_cast<double>(total.aio_queue_waits)));
      aio.set("peak_inflight",
              Json::number(static_cast<double>(total.aio_peak_inflight)));
      fl.set("aio", std::move(aio));
      e.set("flash", std::move(fl));
    }
    e.set("per_pop", std::move(per_pop));
    j.set("edge", std::move(e));
  }

  // Only present when --breakdown recorded something: breakdown-off
  // reports must serialize to the exact bytes they produced before the
  // obs layer existed.
  if (phases.any()) {
    j.set("phases", phases_json(phases));
  }
  if (baseline_phases.any()) {
    j.set("baseline_phases", phases_json(baseline_phases));
  }

  j.set("bytes_on_wire", Json::number(static_cast<double>(bytes_on_wire)));
  j.set("baseline_bytes_on_wire",
        Json::number(static_cast<double>(baseline_bytes_on_wire)));
  j.set("rtts", Json::number(static_cast<double>(rtts)));
  j.set("baseline_rtts", Json::number(static_cast<double>(baseline_rtts)));
  j.set("rtts_saved", Json::number(static_cast<double>(rtts_saved())));
  j.set("bytes_saved", Json::number(static_cast<double>(bytes_saved())));

  j.set("revisit_plt_ms", summary_json(plt_ms));
  j.set("plt_reduction_pct", summary_json(plt_reduction_pct));
  j.set("per_user_plt_reduction_pct",
        summary_json(per_user_plt_reduction_pct));
  j.set("per_user_hit_rate_pct", summary_json(per_user_hit_rate_pct));
  return j;
}

std::string FleetReport::serialize() const { return to_json().dump(); }

std::string FleetReport::traces_jsonl() const {
  std::string out;
  for (const auto& [user, trace] : traces) out += trace;  // ascending id
  return out;
}

std::string FleetReport::render_table(const std::string& title) const {
  Table table(title);
  table.set_header({"metric", "value"});
  table.add_row({"users", std::to_string(users)});
  table.add_row({"visits (cold + revisit)",
                 str_format("%llu (%llu + %llu)",
                            static_cast<unsigned long long>(visits),
                            static_cast<unsigned long long>(visits - revisits),
                            static_cast<unsigned long long>(revisits))});
  table.add_separator();
  const std::uint64_t fetches = counters.total();
  auto pct_of = [fetches](std::uint64_t n) {
    return fetches == 0
               ? std::string("0%")
               : str_format("%.1f%%", 100.0 * static_cast<double>(n) /
                                          static_cast<double>(fetches));
  };
  table.add_row({"revisit fetches", std::to_string(fetches)});
  table.add_row({"  full downloads", pct_of(counters.from_network)});
  table.add_row({"  cache hits", pct_of(counters.from_cache)});
  table.add_row({"  revalidated 304s", pct_of(counters.not_modified)});
  table.add_row({"  sw-cache hits", pct_of(counters.from_sw_cache)});
  table.add_row({"  push deliveries", pct_of(counters.from_push)});
  table.add_row({"  stale served", std::to_string(counters.stale_served)});
  if (oracle.any()) {
    table.add_separator();
    table.add_row({"oracle checked", std::to_string(oracle.checked)});
    table.add_row(
        {"  allowed stale", std::to_string(oracle.allowed_stale)});
    table.add_row({"  violations", std::to_string(oracle.violations)});
    if (oracle.poisoned_serves != 0) {
      table.add_row(
          {"    poisoned serves", std::to_string(oracle.poisoned_serves)});
    }
    if (oracle.cross_user_leaks != 0) {
      table.add_row(
          {"    cross-user leaks", std::to_string(oracle.cross_user_leaks)});
    }
  }
  if (negative_hits != 0) {
    table.add_separator();
    table.add_row({"negative-cache hits", std::to_string(negative_hits)});
  }
  if (faults.any()) {
    table.add_separator();
    table.add_row({"timeouts fired", std::to_string(faults.timeouts)});
    table.add_row({"retries", std::to_string(faults.retries)});
    table.add_row(
        {"connection failures", std::to_string(faults.connection_failures)});
    table.add_row({"fallback revalidations",
                   std::to_string(faults.fallback_revalidations)});
    table.add_row({"failed loads (5xx)", std::to_string(faults.failed_loads)});
  }
  if (!edge_pops.empty()) {
    EdgePopReport total;
    for (const auto& [pop, s] : edge_pops) total.merge(s);
    table.add_separator();
    table.add_row({"edge pops", std::to_string(edge_pops.size())});
    table.add_row({"edge requests", std::to_string(total.requests)});
    auto epct = [&total](std::uint64_t n) {
      return total.requests == 0
                 ? std::string("0%")
                 : str_format("%.1f%%", 100.0 * static_cast<double>(n) /
                                            static_cast<double>(
                                                total.requests));
    };
    table.add_row({"  edge hits", epct(total.hits)});
    if (total.flash_enabled) {
      table.add_row({"  flash hits", epct(total.flash_hits)});
    }
    table.add_row({"  edge revalidated", epct(total.revalidated_hits)});
    table.add_row({"  edge misses", epct(total.misses)});
    table.add_row({"  coalesced fetches", std::to_string(total.coalesced)});
    table.add_row({"origin offload",
                   epct(total.requests - total.origin_fetches)});
    table.add_row({"edge evictions", std::to_string(total.evictions)});
    table.add_row(
        {"edge admission rejects", std::to_string(total.admission_rejects)});
    if (total.negative_stores != 0 || total.negative_hits != 0) {
      table.add_row(
          {"edge negative stores", std::to_string(total.negative_stores)});
      table.add_row(
          {"edge negative hits", std::to_string(total.negative_hits)});
    }
    if (total.adversary_requests != 0 || total.adversary_probes != 0) {
      table.add_row({"adversary requests",
                     std::to_string(total.adversary_requests)});
      table.add_row({"adversary probes (hits)",
                     str_format("%llu (%llu)",
                                static_cast<unsigned long long>(
                                    total.adversary_probes),
                                static_cast<unsigned long long>(
                                    total.adversary_probe_hits))});
    }
    if (total.flash_enabled) {
      table.add_separator();
      table.add_row({"flash demotions", std::to_string(total.flash_demotions)});
      table.add_row(
          {"flash promotions", std::to_string(total.flash_promotions)});
      table.add_row({"flash coalesced reads",
                     std::to_string(total.flash_coalesced)});
      table.add_row({"flash bytes served",
                     format_bytes(total.flash_bytes_served)});
      table.add_row(
          {"flash write amp", str_format("%.2f", total.flash_write_amp())});
      table.add_row({"aio reads (merged)",
                     str_format("%llu (%llu)",
                                static_cast<unsigned long long>(
                                    total.aio_reads),
                                static_cast<unsigned long long>(
                                    total.aio_merged_reads))});
      table.add_row({"aio peak inflight",
                     std::to_string(total.aio_peak_inflight)});
    }
  }
  table.add_separator();
  table.add_row({"bytes on wire", format_bytes(bytes_on_wire)});
  table.add_row({"rtts", std::to_string(rtts)});
  if (baseline_rtts != 0 || baseline_bytes_on_wire != 0) {
    table.add_row({"rtts saved vs baseline",
                   str_format("%lld", static_cast<long long>(rtts_saved()))});
    const std::int64_t bytes = bytes_saved();
    table.add_row(
        {"bytes saved vs baseline",
         str_format("%s%s", bytes < 0 ? "-" : "",
                    format_bytes(static_cast<ByteCount>(
                                     bytes < 0 ? -bytes : bytes))
                        .c_str())});
  }
  if (phases.any()) {
    table.add_separator();
    for (obs::Phase p : obs::kAllPhases) {
      const obs::PhaseHistogram& h = phases.of(p);
      if (h.empty()) continue;
      table.add_row(
          {str_format("phase %s (ms)",
                      std::string(obs::to_string(p)).c_str()),
           str_format("n %llu  p50 %.2f  p95 %.2f  p99 %.2f",
                      static_cast<unsigned long long>(h.count()),
                      h.quantile_ms(50), h.quantile_ms(95),
                      h.quantile_ms(99))});
    }
  }
  table.add_separator();
  table.add_row({"revisit PLT (ms)", stat_row(plt_ms)});
  table.add_row({"PLT reduction (%)", stat_row(plt_reduction_pct)});
  table.add_row(
      {"per-user PLT reduction (%)", stat_row(per_user_plt_reduction_pct)});
  table.add_row({"per-user hit rate (%)", stat_row(per_user_hit_rate_pct)});
  return table.render();
}

}  // namespace catalyst::fleet
