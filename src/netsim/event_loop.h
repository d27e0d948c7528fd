// Discrete-event simulation core: a virtual clock plus an ordered event
// queue. Every network, server and browser action in catalyst is an event
// on this loop, which makes whole-page loads deterministic and lets
// experiments "advance the system clock" between visits exactly like the
// paper does for its revisit delays.
//
// Engine layout: callbacks live in a SlabPool (one recycled slot per
// in-flight event, zero steady-state allocation) and the ready queue is a
// flat binary heap of {when, seq, handle} triples. The pool's generation
// check gives O(1) cancel — a cancelled event's handle goes stale, and
// the heap simply skips stale entries when they surface at the top.
//
// Dispatch is batched by virtual timestamp: all events scheduled at the
// earliest pending time pop off the heap in one tight run (ascending seq,
// so ordering is identical to one-at-a-time dispatch — the golden traces
// verify this), then execute back to back with the clock set once and the
// self-profile scope opened once. Events due immediately — zero-delay
// schedules and past times clamped to now — bypass the heap into a ready
// FIFO whose append order *is* (when, seq) order for the current
// timestamp; since the clock never moves backwards, the heap only ever
// holds strictly-future events and the two structures never interleave.
// Cancellation stays correct inside a batch because execution re-checks
// each handle against the pool: an event cancelled by an earlier member
// of its own batch dereferences to nullptr and is skipped. Events a
// callback schedules at the still-current timestamp land in the next
// batch pass, which matches the unbatched (when, seq) order exactly
// because their seq is necessarily higher.
//
// Callbacks are SmallFn, not std::function: the 48-byte inline buffer
// keeps the fetch path's capturing closures out of the heap (libstdc++'s
// std::function spills anything over 16 bytes), which is where most of
// the dispatch overhead lived.
#pragma once

#include <cstdint>
#include <vector>

#include "util/pool.h"
#include "util/smallfn.h"
#include "util/types.h"

namespace catalyst::obs {
class Recorder;
}

namespace catalyst::netsim {

/// Handle for cancelling a scheduled event. Generation-tagged: ids are
/// never reused, so holding one past execution is safe.
using EventId = std::uint64_t;

/// The scheduled-callback type. Move-only; captures up to the inline
/// budget stay allocation-free (see util/smallfn.h).
using EventFn = SmallFn<void()>;

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

  bool empty() const { return pool_.live() == 0; }
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

  /// Runs every event at the earliest pending timestamp in one batched
  /// pass. Returns events executed (0: nothing runnable).
  std::size_t run_batch();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // strictly-future events only
  // Events due at the current timestamp, in scheduling order: the next
  // batch to execute. Zero-delay schedules append here, skipping the heap.
  std::vector<EventId> ready_;
  SlabPool<EventFn> pool_;
  // Recycled batch buffers (a stack so re-entrant run() calls from inside
  // a callback each get their own scratch without allocating).
  std::vector<std::vector<EventId>> scratch_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace catalyst::netsim
