#include "io/aio.h"

#include <cmath>
#include <utility>

#include "obs/recorder.h"
#include "obs/selfprof.h"

namespace catalyst::io {

namespace {

/// Median service time of a small write (program into the device buffer;
/// sustained GC cost is accounted by the tier, not here).
constexpr Duration kWriteLatency = microseconds(250);

/// Transfer cost per MiB moved (~2.5 GiB/s device).
constexpr Duration kPerMib = microseconds(400);

}  // namespace

AioEngine::AioEngine(netsim::EventLoop& loop, const AioDeviceConfig& config,
                     Rng& rng, AioStats& stats)
    : loop_(loop), config_(config), rng_(rng), stats_(stats) {
  if (config_.queue_depth < 1) config_.queue_depth = 1;
}

void AioEngine::submit_read(const std::string& key, ByteCount bytes,
                            Completion done) {
  if (const auto pending = read_by_key_.find(key);
      pending != read_by_key_.end()) {
    // Merge: the device will read these bytes once; everyone interested
    // completes together.
    ++stats_.merged_reads;
    ops_.at(pending->second).completions.push_back(std::move(done));
    return;
  }
  Op op;
  op.read = true;
  op.key = key;
  op.bytes = bytes;
  op.completions.push_back(std::move(done));
  const std::uint64_t id = enqueue(std::move(op));
  read_by_key_.emplace(key, id);
}

void AioEngine::submit_write(ByteCount bytes, Completion done) {
  Op op;
  op.bytes = bytes;
  if (done) op.completions.push_back(std::move(done));
  enqueue(std::move(op));
}

std::uint64_t AioEngine::enqueue(Op op) {
  const std::uint64_t id = next_id_++;
  op.submitted = loop_.now();
  ops_.emplace(id, std::move(op));
  if (inflight_ < config_.queue_depth) {
    start_op(id);
  } else {
    ++stats_.queue_waits;
    waiting_.push_back(id);
  }
  return id;
}

void AioEngine::start_op(std::uint64_t id) {
  ++inflight_;
  if (static_cast<std::uint64_t>(inflight_) > stats_.peak_inflight) {
    stats_.peak_inflight = static_cast<std::uint64_t>(inflight_);
  }
  const Duration service = service_time(ops_.at(id));
  loop_.schedule_after(service, [this, id]() { finish_op(id); });
}

void AioEngine::finish_op(std::uint64_t id) {
  Op op = std::move(ops_.extract(id).mapped());
  obs::count(obs::Sub::kFlash);
  if (auto* rec = loop_.recorder()) {
    // Device-level decomposition: queue wait + service per op (merged
    // readers share the op, so it is charged once).
    rec->record(obs::Phase::kFlashIo, loop_.now() - op.submitted);
  }
  if (op.read) {
    // Unregister before running completions: a completion may submit a
    // fresh read for the same key, which must become a new device op.
    read_by_key_.erase(op.key);
    ++stats_.reads;
  } else {
    ++stats_.writes;
  }
  --inflight_;
  // Fill the freed slot from the FIFO before running completions, so ops
  // submitted by a completion queue behind everything already waiting.
  while (inflight_ < config_.queue_depth && waiting_head_ < waiting_.size()) {
    const std::uint64_t next = waiting_[waiting_head_++];
    if (waiting_head_ == waiting_.size()) {
      waiting_.clear();
      waiting_head_ = 0;
    }
    start_op(next);
  }
  for (Completion& done : op.completions) {
    if (done) done();
  }
}

Duration AioEngine::service_time(const Op& op) {
  const Duration base = op.read ? config_.read_latency : kWriteLatency;
  double scale = 1.0;
  if (config_.jitter_sigma > 0.0) {
    scale = rng_.lognormal(0.0, config_.jitter_sigma);
    // Clamp the tail: a device stall, not a pathological outlier that
    // would make one unlucky draw dominate a whole sweep point.
    if (scale > 8.0) scale = 8.0;
  }
  const double base_ns =
      static_cast<double>(base.count()) * scale;
  const double transfer_ns =
      static_cast<double>(kPerMib.count()) *
      (static_cast<double>(op.bytes) / static_cast<double>(MiB(1)));
  return Duration{static_cast<std::int64_t>(base_ns + transfer_ns)};
}

}  // namespace catalyst::io
