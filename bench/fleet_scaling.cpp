// Fleet thread scaling: single- vs multi-thread throughput (users/sec)
// and the determinism invariant.
//
// The fleet's correctness bar is that a report is a pure function of
// (users, seed, strategy) — never of the thread count — so this bench both
// measures the worker pool's speedup and asserts byte-identical serialized
// reports across thread counts (exit 1 on any mismatch).
//
// Speedup is bounded by the physical core count: on >= 8 cores the 8-thread
// row should clear 3x; on smaller machines the extra threads time-slice
// and the row reports honestly whatever the hardware gives.
//
// --smoke shrinks the sweep to a seconds-scale fleet.
// CATALYST_FLEET_USERS overrides the fleet size.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "fleet/runner.h"
#include "util/strings.h"
#include "util/table.h"

using namespace catalyst;

namespace {

int fleet_users(bool smoke) {
  if (const char* env = std::getenv("CATALYST_FLEET_USERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return smoke ? 192 : 384;
}

struct TimedRun {
  fleet::FleetReport report;
  double secs = 0.0;
};

TimedRun timed_run(const fleet::FleetParams& params, std::uint64_t users,
                   int threads) {
  fleet::FleetRunner runner(params, users, threads);
  const auto t0 = std::chrono::steady_clock::now();
  TimedRun out{runner.run(), 0.0};
  out.secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const auto users = static_cast<std::uint64_t>(fleet_users(smoke));

  fleet::FleetParams params;
  params.shard_size = 32;  // enough shards for 8 workers to stay busy

  Table table(str_format(
      "fleet scaling: %llu users, %u hardware thread(s)",
      static_cast<unsigned long long>(users),
      std::thread::hardware_concurrency()));
  table.set_header({"threads", "wall (s)", "users/sec", "speedup",
                    "report"});

  std::string reference;
  double t1 = 0.0;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    const TimedRun run = timed_run(params, users, threads);
    const std::string serialized = run.report.serialize();
    if (threads == 1) {
      reference = serialized;
      t1 = run.secs;
    }
    const bool identical = serialized == reference;
    deterministic = deterministic && identical;
    table.add_row({std::to_string(threads), str_format("%.2f", run.secs),
                   str_format("%.1f", static_cast<double>(users) / run.secs),
                   str_format("%.2fx", t1 / run.secs),
                   identical ? "identical" : "MISMATCH"});
  }
  table.print();

  if (!deterministic) {
    std::fprintf(stderr,
                 "fleet_scaling: FAIL — report depends on thread count\n");
    return 1;
  }
  std::printf("determinism: all thread counts produced byte-identical "
              "reports\n");
  return 0;
}
