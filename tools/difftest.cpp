// difftest — randomized differential testing across caching strategies.
//
//   difftest --rounds N [--seed S] [--mutate stale-serve] [--verbose]
//            [--users N] [--visits N] [--no-faults] [--no-edge]
//            [--static-site] [--no-third-party]
//
// An unknown flag, a non-number, or a value outside its flag's range
// (--rounds, --users and --visits at least 1) exits 2 with the usage
// text, so a typo in a gate never passes with no round run.
//
// Each round draws a workload from its round seed (seed + round index):
// a generated site (sitegen × TTL profile × change model × third-party
// mix), a handful of users with randomized access tiers and visit
// schedules, an optional fault mix, and an optional edge-PoP config. The
// same workload then runs under three arms — Baseline, Catalyst, and
// Catalyst behind an edge PoP — each wired through the byte-equivalence
// oracle (check::ByteOracle). A round fails when:
//
//   1. any arm records an oracle violation (stale bytes with no RFC 9111
//      freshness justification), or
//   2. on fault-free visits, the delivered URL set diverges between
//      Baseline and a treatment arm, or
//   3. a per-URL digest divergence between arms is not oracle-excused on
//      both sides (each side fresh-at-its-own-serve-time or allowed-stale), or
//   4. the richest arm, replayed with an obs::Recorder attached, diverges
//      from its unobserved replay (phase recording must be a pure
//      observer — see src/obs/).
//
// On failure the config is minimized (drop faults → drop flash → drop
// edge → static snapshot → fewer users → fewer visits, keeping whatever
// still fails) and a single repro command line is printed.
//
// --mutate stale-serve injects the deliberately broken StaleServeStrategy
// (every cached entry treated as fresh, revalidation skipped) into every
// arm and inverts the expectation: the run passes only if the oracle
// catches the bug, and prints the first catching round as the repro seed.
// --mutate unkeyed-header plants the cache-poisoning defect instead: the
// edge arm's PoP keys entries without X-Forwarded-Host while the origin
// reflects that header, and a scripted adversary strikes before every
// visit. The run passes only when the oracle flags a poisoned-serve or
// cross-user-leak violation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "args.h"
#include "cache/freshness.h"
#include "core/experiment.h"
#include "core/testbed.h"
#include "edge/pop.h"
#include "fleet/user_model.h"
#include "obs/recorder.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/sitegen.h"

using namespace catalyst;

namespace {

/// Every flag difftest reads; anything else exits 2 with the usage text.
constexpr std::string_view kValueFlags[] = {"rounds", "seed", "mutate",
                                            "users", "visits"};
constexpr std::string_view kSwitches[] = {
    "help",  "verbose",  "no-faults", "no-negative", "no-dead-links", "h2",
    "no-h2", "no-flash", "no-edge",   "static-site", "no-third-party"};
constexpr tools::NumericFlag kRanges[] = {
    {"rounds", 1, tools::kMaxI32},
    {"seed", 0, tools::kMaxU64},
    {"users", 1, tools::kMaxU64},
    {"visits", 1, tools::kMaxU64},
};

/// Deliberately planted defects for oracle self-tests. Each inverts the
/// pass criterion: the run succeeds only if the oracle catches the bug.
enum class Mutation {
  None,
  StaleServe,     // browser treats every cached entry as fresh
  UnkeyedHeader,  // edge cache key ignores X-Forwarded-Host while the
                  // origin reflects it (classic cache poisoning); the
                  // scripted adversary supplies the poison
};

/// One user's place in a round: access tier + absolute visit times.
struct DiffUser {
  fleet::AccessTier tier = fleet::AccessTier::Typical4g;
  bool mobile = false;
  std::vector<TimePoint> visits;
};

/// A fully materialized round configuration. Every field is drawn from
/// Rng(round_seed) in a fixed order, then the minimizer only *truncates or
/// disables* (never redraws), so a minimized config replays the surviving
/// prefix of the original draw exactly.
struct RoundConfig {
  std::uint64_t round_seed = 0;
  server::TtlProfile ttl = server::TtlProfile::ConservativeCms;
  bool static_site = false;       // clone_static_snapshot
  double third_party_fraction = 0.0;
  bool faults = false;
  double loss_rate = 0.0;
  double outage_fraction = 0.0;
  bool edge = true;               // run the edge arm
  ByteCount edge_capacity = MiB(8);
  bool flash = false;             // give the edge arm's PoP a flash tier
  ByteCount flash_capacity = MiB(32);
  Duration flash_read_latency = microseconds(100);
  int flash_queue_depth = 8;
  std::vector<DiffUser> users;
  // Negative caching + site error model (drawn at the END of draw_round so
  // pre-existing round seeds replay their original prefix exactly).
  bool negative = false;
  Duration negative_ttl = seconds(60);
  double dead_links = 0.0;
  // Browser transport: H2 rounds run every arm over one multiplexed
  // connection per origin, so the oracle audits both transports. Appended
  // after the error-model draws (same prefix-stability rule).
  bool h2 = false;
};

RoundConfig draw_round(std::uint64_t round_seed) {
  Rng rng(round_seed);
  RoundConfig cfg;
  cfg.round_seed = round_seed;
  switch (rng.uniform_int(0, 3)) {
    case 0: cfg.ttl = server::TtlProfile::ConservativeCms; break;
    case 1: cfg.ttl = server::TtlProfile::DeveloperTuned; break;
    case 2: cfg.ttl = server::TtlProfile::AlwaysRevalidate; break;
    case 3: cfg.ttl = server::TtlProfile::ConservativeCms; break;
  }
  cfg.static_site = rng.bernoulli(0.25);
  cfg.third_party_fraction = rng.bernoulli(0.3) ? 0.2 : 0.0;
  cfg.faults = rng.bernoulli(0.4);
  cfg.loss_rate = rng.uniform(0.02, 0.08);
  cfg.outage_fraction = rng.bernoulli(0.5) ? rng.uniform(0.005, 0.03) : 0.0;
  cfg.edge_capacity = MiB(1) << rng.uniform_int(0, 6);  // 1..64 MiB
  // Flash fields are drawn unconditionally (gated by the flag afterwards)
  // so disabling flash during minimization never shifts the draw stream.
  cfg.flash = rng.bernoulli(0.5);
  cfg.flash_capacity = MiB(4) << rng.uniform_int(0, 5);  // 4..128 MiB
  cfg.flash_read_latency =
      microseconds(static_cast<std::int64_t>(rng.uniform(50.0, 4000.0)));
  cfg.flash_queue_depth = static_cast<int>(rng.uniform_int(1, 32));
  const int users = static_cast<int>(rng.uniform_int(1, 3));
  for (int u = 0; u < users; ++u) {
    DiffUser du;
    switch (rng.uniform_int(0, 3)) {
      case 0: du.tier = fleet::AccessTier::Fast5g; break;
      case 1: du.tier = fleet::AccessTier::Typical4g; break;
      case 2: du.tier = fleet::AccessTier::Slow3g; break;
      case 3: du.tier = fleet::AccessTier::Constrained; break;
    }
    du.mobile = rng.bernoulli(0.3);
    const int visits = static_cast<int>(rng.uniform_int(2, 5));
    TimePoint at = TimePoint{} + hours(1);
    for (int v = 0; v < visits; ++v) {
      du.visits.push_back(at);
      const double gap_hours = std::min(
          120.0, std::max(0.2, rng.lognormal(std::log(12.0), 1.0)));
      at += seconds_f(gap_hours * 3600.0);
    }
    cfg.users.push_back(std::move(du));
  }
  // Appended draws (never reorder or insert above: minimization and repro
  // depend on old seeds replaying the same stream prefix).
  cfg.negative = rng.bernoulli(0.3);
  cfg.negative_ttl = seconds(rng.uniform_int(30, 300));
  cfg.dead_links = rng.bernoulli(0.3) ? 0.1 : 0.0;
  cfg.h2 = rng.bernoulli(0.5);
  return cfg;
}

/// What one arm delivered, per user per visit.
struct ArmResult {
  std::vector<std::vector<client::PageLoadResult>> loads;  // [user][visit]
  client::OracleCounters oracle;  // every load's verdicts
  std::vector<check::Violation> violations;
};

ArmResult run_arm(const RoundConfig& cfg, core::StrategyKind kind,
                  bool behind_edge, Mutation mutate,
                  obs::Recorder* recorder = nullptr) {
  // One shared site timeline per round: every arm must see identical
  // content versions (the whole point of a differential test).
  workload::SitegenParams sp;
  sp.seed = cfg.round_seed;
  sp.site_index = 0;
  sp.ttl_profile = cfg.ttl;
  sp.clone_static_snapshot = cfg.static_site;
  sp.third_party_fraction = cfg.third_party_fraction;
  sp.errors.dead_link_fraction = cfg.dead_links;
  sp.errors.gone_link_fraction = cfg.dead_links / 2.0;
  sp.errors.soft404_fraction = cfg.dead_links / 4.0;
  const workload::SiteBundle bundle = workload::generate_site_bundle(sp);

  cache::NegativePolicy negative;
  if (cfg.negative) {
    negative.enabled = true;
    negative.default_ttl = cfg.negative_ttl;
    if (negative.default_ttl > negative.max_ttl) {
      negative.max_ttl = negative.default_ttl;
    }
  }

  std::unique_ptr<edge::EdgePop> pop;
  if (behind_edge) {
    edge::EdgeConfig ec;
    ec.pop_id = 0;
    ec.capacity = cfg.edge_capacity;
    ec.negative = negative;
    // The planted poisoning defect lives in the edge arm's PoP.
    ec.vulnerable_keying = mutate == Mutation::UnkeyedHeader;
    if (cfg.flash) {
      ec.flash.capacity = cfg.flash_capacity;
      ec.flash.device.read_latency = cfg.flash_read_latency;
      ec.flash.device.queue_depth = cfg.flash_queue_depth;
      ec.flash.seed = cfg.round_seed;
    }
    pop = std::make_unique<edge::EdgePop>(ec);
  }

  ArmResult arm;
  for (std::size_t u = 0; u < cfg.users.size(); ++u) {
    const DiffUser& du = cfg.users[u];
    core::StrategyOptions opts;
    opts.byte_oracle = true;
    opts.mutate_stale_serve = mutate == Mutation::StaleServe;
    opts.negative_cache = negative;
    if (behind_edge && mutate == Mutation::UnkeyedHeader) {
      // Adversary strikes land on the shared PoP before each visit; the
      // round seed keys its draw stream so repros replay exactly.
      opts.adversary.enabled = true;
      opts.adversary.seed = cfg.round_seed;
    }
    opts.mobile_client = du.mobile;
    if (cfg.h2) opts.browser_protocol = netsim::Protocol::H2;
    opts.edge_pop = pop.get();
    opts.phase_recorder = recorder;
    netsim::NetworkConditions cond = fleet::conditions_for(du.tier);
    if (cfg.faults) {
      cond.faults.loss_rate = cfg.loss_rate;
      cond.faults.stall_rate = cfg.loss_rate / 4.0;
      cond.faults.outage_fraction = cfg.outage_fraction;
      cond.faults.fault_seed = cfg.round_seed;
      cond.faults.stream = u;
    }
    core::Testbed tb = core::make_testbed(bundle, cond, kind, opts);
    std::vector<client::PageLoadResult> loads;
    for (const TimePoint at : du.visits) {
      loads.push_back(core::run_visit(tb, at));
      arm.oracle.merge(loads.back().oracle);
    }
    arm.loads.push_back(std::move(loads));
    for (const check::Violation& v : tb.byte_oracle->violations()) {
      arm.violations.push_back(v);
    }
  }
  return arm;
}

/// A visit whose load hit faults may legitimately drop or re-time
/// resources; content-set comparison skips it (the oracle still ran).
bool visit_faulted(const client::PageLoadResult& r) {
  return r.faults.failed_loads != 0 || r.faults.timeouts != 0 ||
         r.faults.connection_failures != 0;
}

/// Compares what `treat` delivered against `base`, visit by visit.
/// Returns an empty string when equivalent, else the first divergence.
std::string diff_delivered(const ArmResult& base, const ArmResult& treat,
                           const std::string& treat_name) {
  for (std::size_t u = 0; u < base.loads.size(); ++u) {
    for (std::size_t v = 0; v < base.loads[u].size(); ++v) {
      const client::PageLoadResult& rb = base.loads[u][v];
      const client::PageLoadResult& rt = treat.loads[u][v];
      if (visit_faulted(rb) || visit_faulted(rt)) continue;

      std::map<std::string, const netsim::FetchTrace*> by_url_b, by_url_t;
      for (const netsim::FetchTrace& t : rb.trace.traces()) {
        by_url_b[t.url] = &t;
      }
      for (const netsim::FetchTrace& t : rt.trace.traces()) {
        by_url_t[t.url] = &t;
      }
      for (const auto& [url, tb] : by_url_b) {
        const auto it = by_url_t.find(url);
        if (it == by_url_t.end()) {
          return str_format("user %zu visit %zu: %s did not deliver %s",
                            u, v, treat_name.c_str(), url.c_str());
        }
        const netsim::FetchTrace* tt = it->second;
        if (tb->status != 200 || tt->status != 200) continue;
        if (tb->body_digest == tt->body_digest) continue;
        // Digest divergence between arms is excused only when each side
        // is individually correct: fresh at its own serve time, or within
        // its RFC 9111 freshness allowance. (Catalyst HTML bodies carry
        // the SW-registration snippet; the oracle's ground-truth
        // transform folds that in, so a decorated-but-current HTML serve
        // classifies Fresh and lands here, excused.)
        auto excused = [](const netsim::FetchTrace* t) {
          return t->oracle_class == netsim::ServeClass::Fresh ||
                 t->oracle_class == netsim::ServeClass::AllowedStale;
        };
        if (!excused(tb) || !excused(tt)) {
          return str_format(
              "user %zu visit %zu: %s delivered different bytes for %s "
              "(%016llx vs %016llx) without a freshness excuse",
              u, v, treat_name.c_str(), url.c_str(),
              static_cast<unsigned long long>(tb->body_digest),
              static_cast<unsigned long long>(tt->body_digest));
        }
      }
      for (const auto& [url, tt] : by_url_t) {
        if (!by_url_b.contains(url)) {
          return str_format("user %zu visit %zu: %s delivered extra %s",
                            u, v, treat_name.c_str(), url.c_str());
        }
      }
    }
  }
  return {};
}

struct RoundOutcome {
  bool failed = false;
  bool violations_caught = false;  // any arm had oracle violations
  std::string detail;
  client::OracleCounters totals;
};

RoundOutcome run_round(const RoundConfig& cfg, Mutation mutate) {
  RoundOutcome out;
  struct ArmSpec {
    const char* name;
    core::StrategyKind kind;
    bool edge;
  };
  std::vector<ArmSpec> arms = {
      {"baseline", core::StrategyKind::Baseline, false},
      {"catalyst", core::StrategyKind::Catalyst, false},
  };
  if (cfg.edge) {
    arms.push_back({"edge", core::StrategyKind::Catalyst, true});
  }

  std::vector<ArmResult> results;
  for (const ArmSpec& spec : arms) {
    results.push_back(run_arm(cfg, spec.kind, spec.edge, mutate));
    const ArmResult& arm = results.back();
    out.totals.merge(arm.oracle);
    if (arm.oracle.violations != 0) {
      out.violations_caught = true;
      out.failed = true;
      const check::Violation& v = arm.violations.front();
      out.detail = str_format(
          "%s arm: %llu oracle violation(s); first: %s [%s] served from "
          "%s (digest %016llx, origin %016llx)",
          spec.name,
          static_cast<unsigned long long>(arm.oracle.violations),
          v.url.c_str(), std::string(netsim::to_string(v.kind)).c_str(),
          std::string(netsim::to_string(v.source)).c_str(),
          static_cast<unsigned long long>(v.served_digest),
          static_cast<unsigned long long>(v.expected_digest));
    }
  }
  if (out.failed) return out;

  for (std::size_t i = 1; i < results.size(); ++i) {
    const std::string diff =
        diff_delivered(results[0], results[i], arms[i].name);
    if (!diff.empty()) {
      out.failed = true;
      out.detail = diff;
      return out;
    }
  }

  // Observer-effect check: replay the richest arm with a phase recorder
  // attached. Recording is virtual-time observation only, so every visit
  // must land bit-identical — any drift means the obs layer perturbed
  // the simulation.
  {
    obs::Recorder rec;
    const std::size_t last = results.size() - 1;
    const ArmResult observed =
        run_arm(cfg, arms[last].kind, arms[last].edge, mutate, &rec);
    for (std::size_t u = 0; u < observed.loads.size(); ++u) {
      for (std::size_t v = 0; v < observed.loads[u].size(); ++v) {
        const client::PageLoadResult& a = results[last].loads[u][v];
        const client::PageLoadResult& b = observed.loads[u][v];
        if (a.plt() != b.plt() || a.bytes_downloaded != b.bytes_downloaded ||
            a.rtts != b.rtts) {
          out.failed = true;
          out.detail = str_format(
              "observer effect: %s arm user %zu visit %zu diverged with a "
              "phase recorder attached (plt %lld vs %lld ns)",
              arms[last].name, u, v,
              static_cast<long long>(a.plt().count()),
              static_cast<long long>(b.plt().count()));
          return out;
        }
      }
    }
  }
  return out;
}

/// Shrinks a failing config: each step keeps the change only if the round
/// still fails. Order: cheapest semantic reductions first.
RoundConfig minimize(RoundConfig cfg, Mutation mutate) {
  auto still_fails = [mutate](const RoundConfig& c) {
    return run_round(c, mutate).failed;
  };
  if (cfg.faults) {
    RoundConfig c = cfg;
    c.faults = false;
    if (still_fails(c)) cfg = c;
  }
  if (cfg.negative) {
    RoundConfig c = cfg;
    c.negative = false;
    if (still_fails(c)) cfg = c;
  }
  if (cfg.dead_links > 0.0) {
    RoundConfig c = cfg;
    c.dead_links = 0.0;
    if (still_fails(c)) cfg = c;
  }
  if (cfg.h2) {
    RoundConfig c = cfg;
    c.h2 = false;
    if (still_fails(c)) cfg = c;
  }
  if (cfg.flash) {
    RoundConfig c = cfg;
    c.flash = false;
    if (still_fails(c)) cfg = c;
  }
  // The unkeyed-header defect lives in the edge arm — dropping the edge
  // would vacuously "fix" it, so skip that step under this mutation.
  if (cfg.edge && mutate != Mutation::UnkeyedHeader) {
    RoundConfig c = cfg;
    c.edge = false;
    if (still_fails(c)) cfg = c;
  }
  if (!cfg.static_site) {
    RoundConfig c = cfg;
    c.static_site = true;
    if (still_fails(c)) cfg = c;
  }
  if (cfg.third_party_fraction > 0.0) {
    RoundConfig c = cfg;
    c.third_party_fraction = 0.0;
    if (still_fails(c)) cfg = c;
  }
  while (cfg.users.size() > 1) {
    RoundConfig c = cfg;
    c.users.pop_back();
    if (!still_fails(c)) break;
    cfg = c;
  }
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (DiffUser& du : cfg.users) {
      if (du.visits.size() <= 2) continue;
      RoundConfig c = cfg;
      // Find the matching user in the copy and drop their last visit.
      c.users[static_cast<std::size_t>(&du - cfg.users.data())]
          .visits.pop_back();
      if (still_fails(c)) {
        cfg = c;
        shrunk = true;
        break;
      }
    }
  }
  return cfg;
}

/// Renders the repro command line for a (possibly minimized) config.
std::string repro_command(const RoundConfig& cfg, Mutation mutate) {
  std::string cmd = str_format("tools/difftest --rounds 1 --seed %llu",
                               static_cast<unsigned long long>(
                                   cfg.round_seed));
  if (mutate == Mutation::StaleServe) cmd += " --mutate stale-serve";
  if (mutate == Mutation::UnkeyedHeader) cmd += " --mutate unkeyed-header";
  RoundConfig original = draw_round(cfg.round_seed);
  if (original.faults && !cfg.faults) cmd += " --no-faults";
  if (original.negative && !cfg.negative) cmd += " --no-negative";
  if (original.dead_links > 0.0 && cfg.dead_links == 0.0) {
    cmd += " --no-dead-links";
  }
  if (original.h2 && !cfg.h2) cmd += " --no-h2";
  if (original.flash && !cfg.flash) cmd += " --no-flash";
  if (original.edge && !cfg.edge) cmd += " --no-edge";
  if (!original.static_site && cfg.static_site) cmd += " --static-site";
  if (original.third_party_fraction > 0.0 &&
      cfg.third_party_fraction == 0.0) {
    cmd += " --no-third-party";
  }
  if (cfg.users.size() < original.users.size()) {
    cmd += str_format(" --users %zu", cfg.users.size());
  }
  std::size_t max_visits = 0;
  bool visits_shrunk = false;
  for (std::size_t u = 0; u < cfg.users.size(); ++u) {
    max_visits = std::max(max_visits, cfg.users[u].visits.size());
    if (cfg.users[u].visits.size() < original.users[u].visits.size()) {
      visits_shrunk = true;
    }
  }
  if (visits_shrunk) cmd += str_format(" --visits %zu", max_visits);
  return cmd;
}

/// Applies CLI overrides (used both for reproing a minimized config and
/// for narrowing exploration).
void apply_overrides(RoundConfig& cfg, const tools::Args& args) {
  if (args.has("no-faults")) cfg.faults = false;
  if (args.has("no-negative")) cfg.negative = false;
  if (args.has("no-dead-links")) cfg.dead_links = 0.0;
  if (args.has("no-h2")) cfg.h2 = false;
  if (args.has("h2")) cfg.h2 = true;  // force the H2 transport axis on
  if (args.has("no-flash")) cfg.flash = false;
  if (args.has("no-edge")) cfg.edge = false;
  if (args.has("static-site")) cfg.static_site = true;
  if (args.has("no-third-party")) cfg.third_party_fraction = 0.0;
  if (args.has("users")) {
    const auto n = static_cast<std::size_t>(args.num("users", 1));
    if (n < cfg.users.size()) cfg.users.resize(n);
  }
  if (args.has("visits")) {
    const auto n = static_cast<std::size_t>(args.num("visits", 2));
    for (DiffUser& du : cfg.users) {
      if (n < du.visits.size()) du.visits.resize(n);
    }
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: difftest --rounds N [--seed S]\n"
      "                [--mutate stale-serve|unkeyed-header]\n"
      "                [--verbose] [--users N] [--visits N] [--no-faults]\n"
      "                [--no-edge] [--no-flash] [--static-site]\n"
      "                [--no-third-party] [--no-negative]\n"
      "                [--no-dead-links] [--h2] [--no-h2]\n"
      "\n"
      "Runs N rounds of randomized differential testing: each round draws\n"
      "a workload (site x TTL profile x change model x faults x edge x\n"
      "negative caching x dead links x H1/H2 transport) from seed+round\n"
      "and replays it under\n"
      "Baseline, Catalyst, and Catalyst behind an edge PoP, all through\n"
      "the byte-equivalence oracle.\n"
      "Exit 0: no violations and no unexplained content divergence.\n"
      "With --mutate stale-serve the broken StaleServeStrategy is injected\n"
      "and the run passes (exit 0) only if the oracle catches it.\n"
      "With --mutate unkeyed-header the edge PoP keys entries without\n"
      "X-Forwarded-Host while a scripted adversary poisons it; the run\n"
      "passes only if the oracle flags poisoned-serve/cross-user-leak.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, kValueFlags, kSwitches, kRanges);
  if (!args.error().empty()) {
    std::fprintf(stderr, "difftest: %s\n", args.error().c_str());
    usage();
    return 2;
  }
  if (args.has("help")) {
    usage();
    return 0;
  }
  const int rounds = static_cast<int>(args.num("rounds", 20));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const bool verbose = args.has("verbose");
  const std::string mutate_name = args.get("mutate", "");
  Mutation mutate = Mutation::None;
  if (mutate_name == "stale-serve") {
    mutate = Mutation::StaleServe;
  } else if (mutate_name == "unkeyed-header") {
    mutate = Mutation::UnkeyedHeader;
  } else if (args.has("mutate")) {
    std::fprintf(stderr, "difftest: unknown mutation '%s'\n",
                 mutate_name.c_str());
    usage();
    return 2;
  }

  int failures = 0;
  client::OracleCounters totals;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t round_seed = seed + static_cast<std::uint64_t>(r);
    RoundConfig cfg = draw_round(round_seed);
    apply_overrides(cfg, args);
    // The unkeyed-header defect is planted in the edge arm's PoP; a round
    // without that arm can never catch it.
    if (mutate == Mutation::UnkeyedHeader) cfg.edge = true;
    const RoundOutcome out = run_round(cfg, mutate);
    totals.merge(out.totals);
    if (verbose || out.failed) {
      std::fprintf(stderr,
                   "round %d (seed %llu): %s — checked %llu, stale-ok "
                   "%llu, violations %llu\n",
                   r, static_cast<unsigned long long>(round_seed),
                   out.failed ? "FAIL" : "ok",
                   static_cast<unsigned long long>(out.totals.checked),
                   static_cast<unsigned long long>(
                       out.totals.allowed_stale),
                   static_cast<unsigned long long>(out.totals.violations));
    }
    if (!out.failed) continue;
    ++failures;
    std::fprintf(stderr, "  %s\n", out.detail.c_str());
    // unkeyed-header must be caught *as* poisoning, not as an incidental
    // staleness violation.
    const bool caught =
        mutate == Mutation::StaleServe
            ? out.violations_caught
            : out.totals.poisoned_serves + out.totals.cross_user_leaks != 0;
    if (mutate != Mutation::None && caught) {
      // The mutation is supposed to fail; one catching seed is the
      // deliverable. Minimize it and stop.
      const RoundConfig minimal = minimize(cfg, mutate);
      std::printf(
          "MUTATION CAUGHT: %s flagged by the oracle\n"
          "repro: %s\n",
          mutate == Mutation::StaleServe ? "StaleServeStrategy"
                                         : "unkeyed-header poisoning",
          repro_command(minimal, mutate).c_str());
      return 0;
    }
    if (mutate == Mutation::None) {
      const RoundConfig minimal = minimize(cfg, mutate);
      std::printf("FAILURE (round %d)\n  %s\n  repro: %s\n", r,
                  out.detail.c_str(),
                  repro_command(minimal, mutate).c_str());
    }
  }

  std::printf(
      "difftest: %d round(s), %d failure(s); oracle checked %llu "
      "(fresh %llu, allowed-stale %llu, violations %llu, poisoned %llu, "
      "leaks %llu, unauditable %llu)\n",
      rounds, failures, static_cast<unsigned long long>(totals.checked),
      static_cast<unsigned long long>(totals.fresh),
      static_cast<unsigned long long>(totals.allowed_stale),
      static_cast<unsigned long long>(totals.violations),
      static_cast<unsigned long long>(totals.poisoned_serves),
      static_cast<unsigned long long>(totals.cross_user_leaks),
      static_cast<unsigned long long>(totals.unauditable));
  if (mutate != Mutation::None) {
    std::printf("MUTATION SURVIVED: the oracle failed to catch %s "
                "in %d round(s)\n",
                mutate == Mutation::StaleServe ? "StaleServeStrategy"
                                               : "unkeyed-header poisoning",
                rounds);
    return 1;
  }
  return failures == 0 ? 0 : 1;
}
