#include "fleet/shard.h"

#include <vector>

#include "check/replay.h"
#include "html/scan.h"
#include "obs/selfprof.h"
#include "server/catalyst_module.h"
#include "workload/sitegen.h"

namespace catalyst::fleet {

namespace {

/// Replays one user's visit timeline under one strategy in a fresh
/// testbed (cache and Service Worker state persist across the timeline,
/// exactly like run_visit_sequence).
std::vector<client::PageLoadResult> replay_timeline(
    const std::shared_ptr<server::Site>& site, const UserProfile& profile,
    core::StrategyKind kind, core::StrategyOptions options,
    netsim::FaultSpec faults, edge::EdgePop* edge_pop,
    Duration edge_origin_rtt, obs::Recorder* recorder) {
  options.mobile_client = profile.mobile_client;
  // Bind this arm's shared PoP (if any) and phase recorder (if breakdown
  // is on) into the user's private testbed.
  options.edge_pop = edge_pop;
  options.phase_recorder = recorder;
  if (edge_pop != nullptr) options.edge_origin_rtt = edge_origin_rtt;
  netsim::NetworkConditions conditions = conditions_for(profile.tier);
  conditions.faults = faults;
  // Key the fault decision stream by user id (the fleet RNG discipline):
  // user i's faults are the same regardless of shard or thread count.
  conditions.faults.stream = profile.user_id;
  core::Testbed tb = core::make_testbed(site, conditions, kind, options);
  std::vector<client::PageLoadResult> results;
  results.reserve(profile.visits.size());
  for (const TimePoint at : profile.visits) {
    results.push_back(core::run_visit(tb, at));
  }
  return results;
}

}  // namespace

std::shared_ptr<server::Site> Shard::site_for(int site_index) {
  auto it = sites_.find(site_index);
  if (it != sites_.end()) return it->second;
  workload::SitegenParams sp;
  sp.seed = params_.user_model.sitegen_seed;
  sp.site_index = site_index;
  sp.clone_static_snapshot = params_.user_model.clone_static_snapshot;
  sp.errors.dead_link_fraction = params_.user_model.dead_link_fraction;
  sp.errors.gone_link_fraction = params_.user_model.gone_link_fraction;
  sp.errors.soft404_fraction = params_.user_model.soft404_fraction;
  auto site = workload::generate_site(sp);
  sites_.emplace(site_index, site);
  return site;
}

void Shard::replay_user(const UserProfile& profile, FleetReport& report) {
  obs::count(obs::Sub::kFleet);
  obs::ScopedTimer prof_timer(obs::Sub::kFleet);
  const auto site = site_for(profile.site_index);
  const auto treat = replay_timeline(
      site, profile, params_.strategy, params_.options, params_.faults,
      treat_pop_.get(), params_.edge.origin_rtt,
      params_.breakdown ? &treat_recorder_ : nullptr);
  const bool compare = params_.baseline != params_.strategy;
  std::vector<client::PageLoadResult> base;
  if (compare) {
    base = replay_timeline(site, profile, params_.baseline, params_.options,
                           params_.faults, base_pop_.get(),
                           params_.edge.origin_rtt,
                           params_.breakdown ? &base_recorder_ : nullptr);
  }

  report.users += 1;
  report.visits += treat.size();
  report.revisits += treat.size() - 1;

  if (profile.user_id < params_.trace_users) {
    std::string jsonl;
    for (std::size_t i = 0; i < treat.size(); ++i) {
      jsonl += check::trace_to_jsonl(treat[i], profile.user_id,
                                     static_cast<std::uint32_t>(i));
    }
    report.traces.emplace(profile.user_id, std::move(jsonl));
  }

  double user_reduction_sum = 0.0;
  std::size_t user_reduction_n = 0;
  std::uint64_t user_fetches = 0;
  std::uint64_t user_avoided = 0;

  for (std::size_t i = 0; i < treat.size(); ++i) {
    const client::PageLoadResult& r = treat[i];
    report.bytes_on_wire += r.bytes_downloaded;
    report.rtts += r.rtts;
    report.events_executed += r.loop_events;
    if (compare) {
      report.baseline_bytes_on_wire += base[i].bytes_downloaded;
      report.baseline_rtts += base[i].rtts;
      report.events_executed += base[i].loop_events;
    }
    // Fault and oracle tallies cover every treatment visit — cold loads
    // get hit by faults like any other, and a wrong byte on the cold load
    // would be just as wrong.
    report.faults.merge(r.faults);
    report.oracle.merge(r.oracle);
    report.negative_hits += r.negative_hits;
    if (i == 0) continue;  // cold load: all-network by construction

    report.counters.merge(r.counters);
    user_fetches += r.counters.total();
    user_avoided += r.counters.avoided_downloads();

    report.plt_ms.add(to_millis(r.plt()));
    if (compare) {
      const double base_ms = to_millis(base[i].plt());
      if (base_ms > 0.0) {
        const double reduction =
            100.0 * (base_ms - to_millis(r.plt())) / base_ms;
        report.plt_reduction_pct.add(reduction);
        user_reduction_sum += reduction;
        ++user_reduction_n;
      }
    }
  }

  if (user_reduction_n > 0) {
    report.per_user_plt_reduction_pct.add(
        user_reduction_sum / static_cast<double>(user_reduction_n));
  }
  if (user_fetches > 0) {
    report.per_user_hit_rate_pct.add(100.0 *
                                     static_cast<double>(user_avoided) /
                                     static_cast<double>(user_fetches));
  }
}

FleetReport Shard::run() {
  FleetReport report;
  // Snapshot this thread's self-profile counters so the report carries
  // exactly what this shard's replay cost (threads are reused across
  // shards, so the raw thread-local totals would double-count).
  const obs::ProfCounters prof_before = obs::tls_prof();
  if (params_.edge.enabled() && task_.pop >= 0) {
    edge::EdgeConfig ec;
    ec.pop_id = task_.pop;
    ec.capacity = params_.edge.capacity;
    ec.tinylfu_admission = params_.edge.admission;
    ec.negative = params_.edge.negative;
    ec.vulnerable_keying = params_.edge.vulnerable_keying;
    if (params_.edge.flash_enabled()) {
      ec.flash.capacity = params_.edge.flash_capacity;
      ec.flash.device.read_latency = params_.edge.flash_read_latency;
      ec.flash.device.queue_depth = params_.edge.flash_queue_depth;
      // Jitter keyed off the fleet's master seed (forked per PoP inside
      // EdgePop) so runs with different seeds draw different streams.
      ec.flash.seed = params_.user_model.master_seed;
    }
    treat_pop_ = std::make_unique<edge::EdgePop>(ec);
    base_pop_ = std::make_unique<edge::EdgePop>(ec);
  }
  for (std::uint64_t i = 0; i < task_.user_count; ++i) {
    const std::uint64_t user_id = task_.first_user + i;
    // Edge mode: the task spans the whole fleet; run only this PoP's
    // users (ascending id, so sample order stays canonical).
    if (task_.pop >= 0 &&
        edge_pop_of(params_.user_model.master_seed, user_id,
                    params_.edge.pops) != task_.pop) {
      continue;
    }
    replay_user(make_user_profile(params_.user_model, user_id), report);
  }
  if (treat_pop_) report.edge_pops[task_.pop] = treat_pop_->stats();
  if (params_.breakdown) {
    report.phases = treat_recorder_.breakdown();
    report.baseline_phases = base_recorder_.breakdown();
  }
  report.prof = obs::tls_prof().delta(prof_before);
  // This thread's content-addressed memos hold entries for this shard's
  // bodies, and the next shard it runs regenerates its own catalog: drop
  // them, so a worker keeps one shard's worth (no page load is in flight).
  html::clear_scan_memo();
  server::CatalystModule::clear_injected_digests();
  return report;
}

}  // namespace catalyst::fleet
