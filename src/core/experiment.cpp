#include "core/experiment.h"

#include <stdexcept>

#include "util/json.h"

namespace catalyst::core {

std::vector<Duration> paper_revisit_delays() {
  return {minutes(1), hours(1), hours(6), days(1), days(7)};
}

namespace {

/// RDR visits bypass the page loader: one bundle fetch, then modeled
/// client-side processing of the bundle's contents.
client::PageLoadResult run_rdr_visit(Testbed& tb) {
  client::PageLoadResult result;
  result.start = tb.loop->now();
  bool done = false;

  tb.browser->fetch(
      tb.fetch_url, /*is_navigation=*/true, std::nullopt,
      [&](client::FetchOutcome outcome) {
        // Unpack the bundle and model parse/exec compute.
        ByteCount js_bytes = 0, css_bytes = 0;
        double resources = 1.0;
        if (const auto meta =
                outcome.response.headers.get(kBundleMetaHeader)) {
          if (const auto json = Json::parse(*meta); json && json->is_object()) {
            if (const Json* v = json->find("js_bytes")) {
              js_bytes = static_cast<ByteCount>(v->as_number());
            }
            if (const Json* v = json->find("css_bytes")) {
              css_bytes = static_cast<ByteCount>(v->as_number());
            }
            if (const Json* v = json->find("resources")) {
              resources = v->as_number();
            }
          }
        }
        const auto& pm = tb.browser->processing();
        const Duration compute =
            pm.html_parse_cost(outcome.response.body.size()) +
            pm.css_parse_cost(css_bytes) + pm.js_exec_cost(js_bytes);

        netsim::FetchTrace trace;
        trace.url = tb.fetch_url.path_and_query() + " (bundle)";
        trace.resource_class = http::ResourceClass::Html;
        trace.start = outcome.start;
        trace.finish = outcome.finish;
        trace.source = outcome.source;
        trace.bytes_down = outcome.response.wire_size();
        result.trace.record(std::move(trace));
        result.resources_total = static_cast<std::uint32_t>(resources);
        result.counters.from_network = result.resources_total;
        tb.loop->schedule_after(compute, [&result, &tb, &done] {
          result.onload = tb.loop->now();
          // The bundle renders only when fully processed.
          result.first_paint = result.onload;
          result.interactive = result.onload;
          result.rtts = static_cast<std::uint32_t>(
              tb.browser->fetcher().total_rtts());
          result.bytes_downloaded =
              tb.browser->fetcher().total_bytes_received();
          done = true;
        });
      });

  result.loop_events = tb.loop->run();
  if (!done) {
    throw std::logic_error("run_rdr_visit: load did not complete");
  }
  return result;
}

}  // namespace

client::PageLoadResult run_visit(Testbed& tb, TimePoint at) {
  std::uint64_t events = tb.loop->run();  // drain prior-visit stragglers
  tb.loop->advance_to(at);

  // The adversary strikes ahead of every visit: its poison attempt and
  // timing probes race the victim's page load through the same loop,
  // which is exactly the contention a shared edge tier gives a real
  // attacker. Deterministic — the strike draws only from its own stream.
  if (tb.adversary) {
    tb.adversary->strike();
    events += tb.loop->run();  // land the strike before the victim loads
  }

  if (tb.kind == StrategyKind::RdrProxy) {
    client::PageLoadResult result = run_rdr_visit(tb);
    tb.browser->end_visit();
    result.loop_events += events;
    return result;
  }

  bool done = false;
  client::PageLoadResult result;
  tb.browser->load_page(tb.fetch_url,
                        [&](client::PageLoadResult r) {
                          result = std::move(r);
                          done = true;
                        });
  events += tb.loop->run();
  if (!done) {
    throw std::logic_error("run_visit: page load did not complete");
  }
  tb.browser->end_visit();
  result.loop_events = events;
  return result;
}

RevisitOutcome run_revisit_pair(std::shared_ptr<server::Site> site,
                                const netsim::NetworkConditions& conditions,
                                StrategyKind kind, Duration delay,
                                const StrategyOptions& options) {
  Testbed tb = make_testbed(std::move(site), conditions, kind, options);
  RevisitOutcome outcome;
  outcome.cold = run_visit(tb, TimePoint{});
  outcome.revisit = run_visit(tb, TimePoint{} + delay);
  return outcome;
}

RevisitOutcome run_revisit_pair(const workload::SiteBundle& bundle,
                                const netsim::NetworkConditions& conditions,
                                StrategyKind kind, Duration delay,
                                const StrategyOptions& options) {
  Testbed tb = make_testbed(bundle, conditions, kind, options);
  RevisitOutcome outcome;
  outcome.cold = run_visit(tb, TimePoint{});
  outcome.revisit = run_visit(tb, TimePoint{} + delay);
  return outcome;
}

std::vector<client::PageLoadResult> run_visit_sequence(
    std::shared_ptr<server::Site> site,
    const netsim::NetworkConditions& conditions, StrategyKind kind,
    const std::vector<Duration>& delays, const StrategyOptions& options) {
  Testbed tb = make_testbed(std::move(site), conditions, kind, options);
  std::vector<client::PageLoadResult> results;
  results.push_back(run_visit(tb, TimePoint{}));
  for (const Duration delay : delays) {
    results.push_back(run_visit(tb, TimePoint{} + delay));
  }
  return results;
}

Summary plt_reduction_summary(
    const std::vector<std::shared_ptr<server::Site>>& sites,
    const netsim::NetworkConditions& conditions, StrategyKind treatment,
    StrategyKind baseline, const std::vector<Duration>& delays,
    const StrategyOptions& options) {
  Summary reductions;
  for (const auto& site : sites) {
    for (const Duration delay : delays) {
      const RevisitOutcome base =
          run_revisit_pair(site, conditions, baseline, delay, options);
      const RevisitOutcome treat =
          run_revisit_pair(site, conditions, treatment, delay, options);
      const double base_ms = to_millis(base.revisit.plt());
      const double treat_ms = to_millis(treat.revisit.plt());
      if (base_ms <= 0.0) continue;
      reductions.add(100.0 * (base_ms - treat_ms) / base_ms);
    }
  }
  return reductions;
}

}  // namespace catalyst::core
