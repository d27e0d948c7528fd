// fleetsim — population-scale fleet simulation driver.
//
//   fleetsim --users N [--threads T] [--seed S] [--strategy K]
//            [--baseline K] [--sites N] [--shard-size N]
//            [--horizon-days D] [--mean-gap-hours H] [--max-visits V]
//            [--loss P] [--outage F] [--fault-seed S]
//            [--edge-pops N] [--edge-capacity-mb M] [--edge-origin-rtt-ms R]
//            [--edge-flash-mb M] [--edge-flash-lat-us U] [--edge-flash-qd Q]
//            [--h2] [--breakdown] [--self-profile] [--json]
//
// Runs N independent user sessions (Zipf site popularity, Poisson revisit
// schedules, mixed access tiers) under the chosen strategy, replays the
// same users under --baseline to price RTTs/bytes saved, and prints the
// merged FleetReport. The report on stdout is byte-identical for any
// --threads value; timing goes to stderr so it never perturbs that.
//
// Strategies: baseline catalyst catalyst+learn push-all push-learned
//             push-digest early-hints rdr-proxy oracle
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "args.h"
#include "fleet/runner.h"
#include "obs/selfprof.h"
#include "util/strings.h"

using namespace catalyst;

namespace {

/// Every flag fleetsim reads. Anything else on the command line is a usage
/// error: a typo'd or retired flag must not silently run a different fleet
/// than the one asked for.
constexpr std::string_view kValueFlags[] = {
    "users",              "threads",        "seed",
    "strategy",           "baseline",       "sites",
    "shard-size",         "horizon-days",   "mean-gap-hours",
    "max-visits",         "loss",           "outage",
    "fault-seed",         "edge-pops",      "edge-capacity-mb",
    "edge-origin-rtt-ms", "edge-flash-mb",  "edge-flash-lat-us",
    "edge-flash-qd",      "negative-ttl-s", "dead-links",
    "adversary-rate",     "adversary-seed", "trace-users",
    "trace-out"};
constexpr std::string_view kSwitches[] = {
    "help",      "json",              "h2",
    "breakdown", "self-profile",      "oracle",
    "adversary", "vulnerable-keying", "edge-no-admission"};

// Every numeric flag given must parse into its range (bounds inclusive)
// before it is cast to its field: a NaN or out-of-range value makes the
// cast undefined, makes a worker thread throw, or runs a different fleet
// than the one asked for. Times stay far inside the clock's 292 years of
// int64 nanoseconds: horizons and TTLs up to a century, mean gaps up to a
// year, latencies up to an hour. Mean gaps start at a minute, the
// shortest gap drawn.
constexpr tools::NumericFlag kRanges[] = {
    {"users", 1, tools::kMaxU64},
    {"threads", 1, 1024},
    {"seed", 0, tools::kMaxU64},
    {"sites", 1, tools::kMaxI32},
    {"shard-size", 1, tools::kMaxU64},
    {"horizon-days", 0, 36500},
    {"mean-gap-hours", 1.0 / 60, 8760},
    {"max-visits", 1, tools::kMaxI32},
    {"loss", 0, 1},
    {"outage", 0, 1},
    {"fault-seed", 0, tools::kMaxU64},
    {"edge-pops", 0, 1024},
    {"edge-capacity-mb", 0, 65536},
    {"edge-origin-rtt-ms", 0, 3.6e6},
    {"edge-flash-mb", 1, 65536},
    {"edge-flash-lat-us", 1, 3.6e9},
    {"edge-flash-qd", 1, tools::kMaxI32},
    {"negative-ttl-s", 1, 3.1536e9},
    {"dead-links", 0, 1},
    {"adversary-rate", 1, tools::kMaxI32},
    {"adversary-seed", 0, tools::kMaxU64},
    {"trace-users", 0, tools::kMaxU64},
};

std::optional<core::StrategyKind> parse_strategy(const std::string& name) {
  using core::StrategyKind;
  static const std::map<std::string, StrategyKind> kMap = {
      {"baseline", StrategyKind::Baseline},
      {"catalyst", StrategyKind::Catalyst},
      {"catalyst+learn", StrategyKind::CatalystLearned},
      {"push-all", StrategyKind::PushAll},
      {"push-learned", StrategyKind::PushLearned},
      {"push-digest", StrategyKind::PushDigest},
      {"early-hints", StrategyKind::EarlyHints},
      {"rdr-proxy", StrategyKind::RdrProxy},
      {"oracle", StrategyKind::Oracle},
  };
  const auto it = kMap.find(name);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: fleetsim --users N [--threads T] [--seed S] [--strategy K]\n"
      "                [--baseline K] [--sites N] [--shard-size N]\n"
      "                [--horizon-days D] [--mean-gap-hours H]\n"
      "                [--max-visits V] [--loss P] [--outage F]\n"
      "                [--fault-seed S] [--edge-pops N]\n"
      "                [--edge-capacity-mb M] [--edge-origin-rtt-ms R]\n"
      "                [--edge-no-admission] [--edge-flash-mb M]\n"
      "                [--edge-flash-lat-us U] [--edge-flash-qd Q]\n"
      "                [--negative-ttl-s T] [--dead-links F] [--adversary]\n"
      "                [--adversary-rate R] [--adversary-seed S]\n"
      "                [--vulnerable-keying] [--h2] [--breakdown]\n"
      "                [--self-profile] [--json]\n"
      "\n"
      "  --loss P       per-request fault probability: P mid-stream drops\n"
      "                 plus P/4 silent stalls (default 0: no fault layer)\n"
      "  --outage F     fraction of each hour origins are dark (default 0)\n"
      "  --fault-seed S seed for the deterministic fault schedule (2024)\n"
      "  --edge-pops N  shared edge cache PoPs between users and origins\n"
      "                 (default 0: no edge tier, pre-edge byte-identical\n"
      "                 output; users map to PoPs by seed + user id)\n"
      "  --edge-capacity-mb M   per-PoP cache budget (default 64)\n"
      "  --edge-origin-rtt-ms R PoP-to-origin RTT (default 30)\n"
      "  --edge-no-admission    disable TinyLFU admission (plain SLRU)\n"
      "  --edge-flash-mb M      per-PoP flash tier behind the RAM cache\n"
      "                 (default 0: RAM-only PoPs; requires --edge-pops)\n"
      "  --edge-flash-lat-us U  median flash read latency (default 100)\n"
      "  --edge-flash-qd Q      flash device queue depth (default 8)\n"
      "  --oracle       audit every serve against origin ground truth\n"
      "                 (byte-equivalence oracle; adds an \"oracle\"\n"
      "                 report section; off by default)\n"
      "  --negative-ttl-s T  cache 404/410 responses for up to T seconds\n"
      "                 (RFC 9111 s4) in the browser cache, the SW and any\n"
      "                 edge PoPs (default off: errors are never cached)\n"
      "  --dead-links F site error model intensity, F in [0,1]: each image/\n"
      "                 JSON slot gains a dead (404) reference with prob. F,\n"
      "                 a retired (410) one with F/2; JSON endpoints turn\n"
      "                 soft-404 with F/4 (default 0: no broken links)\n"
      "  --adversary    scripted attacker per testbed: cache-poisoning\n"
      "                 requests (unkeyed X-Forwarded-Host) and timing\n"
      "                 probes against the edge tier; requires --edge-pops\n"
      "  --adversary-rate R   poisoning requests per strike (default 4)\n"
      "  --adversary-seed S   attacker RNG stream seed (default 0xadba5e)\n"
      "  --vulnerable-keying  PLANTED DEFECT: edge cache keys ignore\n"
      "                 X-Forwarded-Host, letting poison land; only for\n"
      "                 oracle self-tests (difftest --mutate unkeyed-header)\n"
      "  --trace-users N  record replayable JSONL traces for users 0..N-1\n"
      "  --trace-out F    write recorded traces to file F (requires\n"
      "                   --trace-users; '-' for stdout)\n"
      "  --h2           browsers speak HTTP/2 to every origin: one\n"
      "                 multiplexed connection instead of six HTTP/1.1\n"
      "                 connections per origin (default off: H1, matching\n"
      "                 the paper's testbed; push strategies always use\n"
      "                 H2 regardless). Reports stay bit-identical for\n"
      "                 any --threads value.\n"
      "  --breakdown    record per-request latency phase breakdowns (dns/\n"
      "                 connect/tls/queue/ttfb/transfer/...) and add a\n"
      "                 \"phases\" section per strategy arm to the report;\n"
      "                 virtual-time only, bit-identical for any --threads\n"
      "                 (default off: reports stay byte-identical)\n"
      "  --self-profile enable wall-clock subsystem timers and print an\n"
      "                 ops/sec + cpu-share table to stderr after the run\n"
      "                 (never touches the byte-stable report on stdout)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, kValueFlags, kSwitches, kRanges);
  if (!args.error().empty()) {
    std::fprintf(stderr, "fleetsim: %s\n", args.error().c_str());
    usage();
    return 2;
  }
  if (args.has("help")) {
    usage();
    return 0;
  }

  const auto users = static_cast<std::uint64_t>(args.num("users", 1000));
  const int threads = static_cast<int>(args.num("threads", 1));
  const auto strategy = parse_strategy(args.get("strategy", "catalyst"));
  const auto baseline = parse_strategy(args.get("baseline", "baseline"));
  if (!strategy || !baseline) {
    usage();
    return 2;
  }

  fleet::FleetParams params;
  params.strategy = *strategy;
  params.baseline = *baseline;
  params.shard_size = static_cast<std::uint64_t>(args.num("shard-size", 256));
  params.user_model.master_seed =
      static_cast<std::uint64_t>(args.num("seed", 2024));
  params.user_model.sitegen_seed = params.user_model.master_seed;
  params.user_model.site_catalog_size =
      static_cast<int>(args.num("sites", 40));
  params.user_model.horizon =
      seconds_f(args.num("horizon-days", 7) * 86400.0);
  params.user_model.mean_visit_gap =
      seconds_f(args.num("mean-gap-hours", 36) * 3600.0);
  params.user_model.max_visits = static_cast<int>(args.num("max-visits", 6));

  // Fault injection (all default-off; leaving them zero keeps the report
  // byte-identical to builds without the fault layer).
  const double loss = args.num("loss", 0.0);
  params.faults.loss_rate = loss;
  params.faults.stall_rate = loss / 4.0;
  params.faults.outage_fraction = args.num("outage", 0.0);
  params.faults.fault_seed =
      static_cast<std::uint64_t>(args.num("fault-seed", 2024));

  // Edge tier (default-off; zero PoPs leaves topology, replay and report
  // byte-identical to builds without the edge subsystem).
  params.edge.pops = static_cast<int>(args.num("edge-pops", 0));
  params.edge.capacity =
      MiB(static_cast<ByteCount>(args.num("edge-capacity-mb", 64)));
  params.edge.origin_rtt = seconds_f(args.num("edge-origin-rtt-ms", 30) /
                                     1000.0);
  params.edge.admission = !args.has("edge-no-admission");

  // Flash tier flags (default-off). Validate before touching params: a
  // flash tier with no edge tier — or a nonsense size — is a config error
  // the user should hear about, not a silently ignored flag.
  const bool any_flash_flag = args.has("edge-flash-mb") ||
                              args.has("edge-flash-lat-us") ||
                              args.has("edge-flash-qd");
  if (any_flash_flag && params.edge.pops <= 0) {
    std::fprintf(stderr,
                 "fleetsim: --edge-flash-* requires an edge tier; add "
                 "--edge-pops N\n");
    usage();
    return 2;
  }
  params.edge.flash_capacity =
      MiB(static_cast<ByteCount>(args.num("edge-flash-mb", 0)));
  params.edge.flash_read_latency = Duration{
      static_cast<std::int64_t>(args.num("edge-flash-lat-us", 100) * 1000.0)};
  params.edge.flash_queue_depth =
      static_cast<int>(args.num("edge-flash-qd", 8));

  // Negative caching (default-off).
  if (args.has("negative-ttl-s")) {
    cache::NegativePolicy negative;
    negative.enabled = true;
    negative.default_ttl = seconds_f(args.num("negative-ttl-s", 0));
    if (negative.default_ttl > negative.max_ttl) {
      negative.max_ttl = negative.default_ttl;
    }
    params.options.negative_cache = negative;
    params.edge.negative = negative;
  }

  // Site error model (default-off; zero fractions keep the generated
  // catalog byte-identical to pre-error-model builds).
  const double dead_links = args.num("dead-links", 0.0);
  params.user_model.dead_link_fraction = dead_links;
  params.user_model.gone_link_fraction = dead_links / 2.0;
  params.user_model.soft404_fraction = dead_links / 4.0;

  // Adversary (default-off). The attack needs a shared cache to poison:
  // adversary flags without an edge tier are a config error, as are
  // attack-tuning flags without --adversary.
  const bool any_adversary_flag = args.has("adversary") ||
                                  args.has("adversary-rate") ||
                                  args.has("adversary-seed") ||
                                  args.has("vulnerable-keying");
  if (any_adversary_flag && params.edge.pops <= 0) {
    std::fprintf(stderr,
                 "fleetsim: --adversary/--vulnerable-keying target the "
                 "edge tier; add --edge-pops N\n");
    usage();
    return 2;
  }
  if ((args.has("adversary-rate") || args.has("adversary-seed")) &&
      !args.has("adversary")) {
    std::fprintf(stderr,
                 "fleetsim: --adversary-rate/--adversary-seed require "
                 "--adversary\n");
    usage();
    return 2;
  }
  if (args.has("adversary")) {
    params.options.adversary.enabled = true;
    params.options.adversary.requests_per_strike =
        static_cast<int>(args.num("adversary-rate", 4));
    params.options.adversary.seed = static_cast<std::uint64_t>(
        args.num("adversary-seed", 0xadba5e));
  }
  params.edge.vulnerable_keying = args.has("vulnerable-keying");

  // Browser transport (default H1 — the paper's six-connection testbed).
  // --h2 pins every browser connection to one multiplexed H2 stream.
  if (args.has("h2")) params.options.browser_protocol = netsim::Protocol::H2;

  // Correctness oracle + trace recording (default-off; both keep the
  // default report byte-identical to pre-oracle builds).
  params.options.byte_oracle = args.has("oracle");
  params.trace_users =
      static_cast<std::uint64_t>(args.num("trace-users", 0));
  if (args.has("trace-out") && params.trace_users == 0) {
    std::fprintf(stderr,
                 "fleetsim: --trace-out requires --trace-users N (N >= 1)\n");
    usage();
    return 2;
  }

  // Observability (default-off; both are pure observation).
  params.breakdown = args.has("breakdown");
  const bool self_profile = args.has("self-profile");
  obs::set_timing(self_profile);

  fleet::FleetRunner runner(params, users, threads);
  std::fprintf(stderr, "fleetsim: %llu users, %zu shards, %d thread(s), %s vs %s\n",
               static_cast<unsigned long long>(users), runner.shard_count(),
               runner.threads(),
               std::string(core::to_string(*strategy)).c_str(),
               std::string(core::to_string(*baseline)).c_str());

  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetReport report = runner.run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (args.has("json")) {
    std::printf("%s\n", report.serialize().c_str());
  } else {
    const std::string title = str_format(
        "fleet: %llu users, %s vs %s (seed %llu)",
        static_cast<unsigned long long>(users),
        std::string(core::to_string(*strategy)).c_str(),
        std::string(core::to_string(*baseline)).c_str(),
        static_cast<unsigned long long>(params.user_model.master_seed));
    std::printf("%s", report.render_table(title).c_str());
  }
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", "-");
    const std::string jsonl = report.traces_jsonl();
    if (path == "-" || path.empty()) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
    } else if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      const bool written =
          std::fwrite(jsonl.data(), 1, jsonl.size(), f) == jsonl.size();
      if (std::fclose(f) != 0 || !written) {
        std::fprintf(stderr, "fleetsim: cannot write %s\n", path.c_str());
        return 1;
      }
      std::fprintf(stderr, "fleetsim: wrote %zu trace bytes to %s\n",
                   jsonl.size(), path.c_str());
    } else {
      std::fprintf(stderr, "fleetsim: cannot open %s\n", path.c_str());
      return 1;
    }
  }
  // Every diff gate compares this output with cmp: a lost write must fail.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "fleetsim: cannot write stdout\n");
    return 1;
  }
  std::fprintf(stderr,
               "fleetsim: %.2f s wall, %.1f users/sec, %.0f events/sec\n",
               secs, secs > 0 ? static_cast<double>(users) / secs : 0.0,
               secs > 0 ? static_cast<double>(report.events_executed) / secs
                        : 0.0);
  if (self_profile) {
    std::fprintf(stderr, "%s", report.prof.render_table(secs).c_str());
  }
  return 0;
}
