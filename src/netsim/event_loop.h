// Discrete-event simulation core: a virtual clock plus an ordered event
// queue. Every network, server and browser action in catalyst is an event
// on this loop, which makes whole-page loads deterministic and lets
// experiments "advance the system clock" between visits exactly like the
// paper does for its revisit delays.
//
// Engine layout: callbacks live in a SlabPool (one recycled slot per
// in-flight event) and every event, due-now ones included, sits in one
// flat binary heap of {when, seq, handle} triples. run() pops one event at
// a time in (when, seq) order, so events at equal times run in scheduling
// order. The pool's generation check gives O(1) cancel: a cancelled
// event's handle goes stale, and run() skips stale entries when they
// surface at the top. Replacing the pool with a map keyed by seq, or pool
// and heap with one ordered map, cost 1.1-3.1% CPU per user in
// interleaved A/B runs (DESIGN.md §12).
//
// Events are not batched by timestamp: a FIFO of due-now events beside
// the heap is a second ordering path that must match this one, and in
// interleaved A/B runs removing it moved no end-to-end metric beyond the
// runs' own spread (BENCHMARKS.md, 2026-10-18).
//
// Callbacks are std::function, the type the browser's typed callbacks
// use too. libstdc++ allocates every closure over 16 bytes (or not
// trivially copyable), 69-72% of the engine's. A 48-byte inline buffer
// allocated 54-59% of them all the same, and the 10-18% it alone kept
// off the heap moved no end-to-end metric (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/pool.h"
#include "util/types.h"

namespace catalyst::obs {
class Recorder;
}

namespace catalyst::netsim {

/// Handle for cancelling a scheduled event. Generation-tagged: ids are
/// never reused, so holding one past execution is safe.
using EventId = std::uint64_t;

/// The scheduled-callback type. A scheduled closure must be copyable.
using EventFn = std::function<void()>;

/// Virtual-time event loop. Events at equal times run in scheduling order
/// (stable), which keeps simulations reproducible.
class EventLoop {
 public:
  EventLoop() = default;
  explicit EventLoop(TimePoint start) : now_(start) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (clamped to now if in the past).
  EventId schedule_at(TimePoint when, EventFn fn);

  /// Schedules `fn` after `delay` from now (negative delays clamp to now).
  EventId schedule_after(Duration delay, EventFn fn);

  /// Cancels a pending event. Cancelling an already-run or unknown id is a
  /// harmless no-op.
  void cancel(EventId id);

  /// Runs until the queue is empty. Returns the number of events executed.
  std::size_t run();

  /// Moves the clock forward without running anything (requires an empty
  /// queue; throws otherwise). Used to simulate time between page visits.
  void advance_to(TimePoint when);

  std::size_t pending() const { return pool_.live(); }

  /// Non-owning phase recorder hook. Every subsystem holds a loop (or a
  /// Network that does), so this is the one place a breakdown consumer
  /// needs to attach. Null by default: instrumentation sites check the
  /// pointer and record nothing.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  obs::Recorder* recorder() const { return recorder_; }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    EventId id;
    // Min-heap via std::push_heap's max-heap order: later time (or later
    // seq at equal time) compares less, so the earliest event surfaces.
    bool operator<(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
  SlabPool<EventFn> pool_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace catalyst::netsim
