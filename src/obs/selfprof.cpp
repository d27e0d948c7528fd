#include "obs/selfprof.h"

#include <chrono>
#include <cstdio>

namespace catalyst::obs {
namespace {

std::atomic<bool> g_timing{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread attribution state: the innermost open subsystem scope and
// when its current exclusive segment started.
struct TimingState {
  Sub cur{};
  std::uint64_t seg_start = 0;
  int depth = 0;
};

TimingState& tls_timing() {
  thread_local TimingState state;
  return state;
}

}  // namespace

ProfCounters& tls_prof() {
  thread_local ProfCounters prof;
  return prof;
}

void set_timing(bool enabled) {
  g_timing.store(enabled, std::memory_order_relaxed);
}

bool timing_enabled() { return g_timing.load(std::memory_order_relaxed); }

ScopedTimer::ScopedTimer(Sub sub) {
  if (!timing_enabled()) return;
  active_ = true;
  auto& st = tls_timing();
  const std::uint64_t now = now_ns();
  if (st.depth > 0) {
    // Close out the parent's exclusive segment before nesting.
    tls_prof().ns[sub_index(st.cur)] += now - st.seg_start;
  }
  prev_ = st.cur;
  st.cur = sub;
  st.seg_start = now;
  ++st.depth;
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  auto& st = tls_timing();
  const std::uint64_t now = now_ns();
  tls_prof().ns[sub_index(st.cur)] += now - st.seg_start;
  st.cur = prev_;
  st.seg_start = now;
  --st.depth;
}

void ProfCounters::merge(const ProfCounters& other) {
  for (std::size_t i = 0; i < kSubCount; ++i) {
    ops[i] += other.ops[i];
    ns[i] += other.ns[i];
  }
}

ProfCounters ProfCounters::delta(const ProfCounters& since) const {
  ProfCounters d;
  for (std::size_t i = 0; i < kSubCount; ++i) {
    d.ops[i] = ops[i] - since.ops[i];
    d.ns[i] = ns[i] - since.ns[i];
  }
  return d;
}

std::uint64_t ProfCounters::total_ns() const {
  std::uint64_t sum = 0;
  for (std::uint64_t n : ns) sum += n;
  return sum;
}

std::string ProfCounters::render_table(double wall_s) const {
  const double timed_ns = static_cast<double>(total_ns());
  std::string out;
  out += "  subsystem        ops      ops/sec    cpu_ms   share\n";
  char line[128];
  for (Sub s : kAllSubs) {
    const std::size_t i = sub_index(s);
    const double rate =
        wall_s > 0.0 ? static_cast<double>(ops[i]) / wall_s : 0.0;
    const double cpu_ms = static_cast<double>(ns[i]) / 1e6;
    const double share =
        timed_ns > 0.0 ? 100.0 * static_cast<double>(ns[i]) / timed_ns : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-9s %10llu %12.0f %9.1f %6.1f%%\n",
                  std::string(to_string(s)).c_str(),
                  static_cast<unsigned long long>(ops[i]), rate, cpu_ms,
                  share);
    out += line;
  }
  return out;
}

Json ProfCounters::to_json(double wall_s) const {
  Json obj = Json::object();
  for (Sub s : kAllSubs) {
    const std::size_t i = sub_index(s);
    Json entry = Json::object();
    entry.set("ops", Json::number(static_cast<double>(ops[i])));
    entry.set("ops_per_sec",
              Json::number(wall_s > 0.0
                               ? static_cast<double>(ops[i]) / wall_s
                               : 0.0));
    entry.set("cpu_ms", Json::number(static_cast<double>(ns[i]) / 1e6));
    obj.set(std::string(to_string(s)), std::move(entry));
  }
  return obj;
}

}  // namespace catalyst::obs
