// Asynchronous-I/O device model — the cost model under the edge flash
// tier.
//
// A real CDN PoP serves its long tail from NVMe flash through an async
// I/O engine (io_uring / Linux AIO): requests are submitted into a
// bounded device queue, each op takes a service time that depends on the
// device and the transfer size, and completions arrive out of band. This
// module reproduces that shape inside the simulator's virtual clock:
//
//   - bounded queue depth: at most `queue_depth` ops are in service;
//     later submissions wait in a FIFO until a slot frees, so a burst of
//     reads sees realistic queueing delay, not a flat per-op latency;
//   - seeded service latency: each op draws base-latency × lognormal
//     jitter + a per-byte transfer cost from a caller-owned Rng, so the
//     latency stream is a pure function of (seed, submission order);
//   - read merging: a read submitted for a key that already has a read
//     queued or in service joins that op and shares its completion — the
//     request-merging trick of flash KV stores, and the device-level
//     complement of the edge tier's request coalescing;
//   - completions delivered through the owning testbed's netsim
//     EventLoop, so flash I/O interleaves deterministically with network
//     events and reports stay byte-identical for any --threads.
//
// The engine is a per-testbed binding (like edge::EdgeNode); the Rng and
// AioStats it draws from and accounts into are owned by the long-lived
// EdgePop, so latency streams and telemetry persist across the testbeds
// that replay one PoP's users.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/event_loop.h"
#include "util/rng.h"
#include "util/types.h"

namespace catalyst::io {

struct AioDeviceConfig {
  /// Ops concurrently in service (NVMe-style submission queue depth).
  int queue_depth = 8;

  /// Median service time of a small read (flash page read + kernel
  /// round-trip). The axis the FLASH sweeps move against origin RTT.
  Duration read_latency = microseconds(100);

  /// Lognormal sigma applied to the base latency (0 = deterministic
  /// service times; jitter stays seeded and reproducible either way).
  double jitter_sigma = 0.25;
};

/// Engine telemetry: plain counts and one high-water mark, which
/// EdgePop::stats() copies into EdgePopStats::aio_*.
struct AioStats {
  std::uint64_t reads = 0;         // read ops serviced by the device
  std::uint64_t writes = 0;        // write ops serviced by the device
  std::uint64_t merged_reads = 0;  // reads absorbed into a pending op
  std::uint64_t queue_waits = 0;   // ops that waited for a device slot
  std::uint64_t peak_inflight = 0; // max ops concurrently in service
};

/// Deterministic async-I/O engine bound to one EventLoop. Submission is
/// immediate; completion callbacks fire as loop events after the op's
/// queue wait + service time. Completion order is a pure function of the
/// submission sequence and the Rng state, never of wall-clock anything.
class AioEngine {
 public:
  using Completion = netsim::EventFn;

  /// `rng` supplies the jitter stream and `stats` receives telemetry;
  /// both must outlive the engine (they live in the EdgePop so they
  /// persist across per-testbed engine bindings).
  AioEngine(netsim::EventLoop& loop, const AioDeviceConfig& config,
            Rng& rng, AioStats& stats);

  AioEngine(const AioEngine&) = delete;
  AioEngine& operator=(const AioEngine&) = delete;

  /// Submits a read of `bytes` for `key`. If a read for the same key is
  /// already queued or in service, `done` joins that op (merged read)
  /// and fires at its completion.
  void submit_read(const std::string& key, ByteCount bytes, Completion done);

  /// Submits a write of `bytes`. Writes never merge; `done` may be
  /// empty when the caller only wants the queue-pressure side effect.
  void submit_write(ByteCount bytes, Completion done = nullptr);

 private:
  struct Op {
    bool read = false;
    std::string key;  // merge identity (reads only)
    ByteCount bytes = 0;
    TimePoint submitted{};  // queue wait + service = FlashIo obs phase
    std::vector<Completion> completions;
  };

  std::uint64_t enqueue(Op op);
  void start_op(std::uint64_t id);
  void finish_op(std::uint64_t id);
  Duration service_time(const Op& op);

  netsim::EventLoop& loop_;
  AioDeviceConfig config_;
  Rng& rng_;
  AioStats& stats_;

  std::uint64_t next_id_ = 1;
  int inflight_ = 0;
  std::unordered_map<std::uint64_t, Op> ops_;
  // FIFO of ops waiting for a device slot (drained from waiting_head_).
  std::vector<std::uint64_t> waiting_;
  std::size_t waiting_head_ = 0;
  // Pending (queued or in-service) read per key, for merging.
  std::unordered_map<std::string, std::uint64_t> read_by_key_;
};

}  // namespace catalyst::io
