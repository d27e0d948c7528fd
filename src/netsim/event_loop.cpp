#include "netsim/event_loop.h"

#include <algorithm>
#include <stdexcept>

#include "obs/selfprof.h"

namespace catalyst::netsim {

EventId EventLoop::schedule_at(TimePoint when, EventFn fn) {
  const EventId id = pool_.acquire();
  *pool_.get(id) = std::move(fn);
  if (when <= now_) {
    // Due immediately (zero-delay schedules and clamped past times): the
    // ready FIFO already is (when, seq) order for time now_, so the event
    // skips the heap entirely.
    ready_.push_back(id);
  } else {
    heap_.push_back(Entry{when, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end());
  }
  return id;
}

EventId EventLoop::schedule_after(Duration delay, EventFn fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

void EventLoop::cancel(EventId id) {
  // Releasing makes the handle stale; the heap entry is skipped lazily
  // when it reaches the top. Stale/unknown ids are a no-op.
  pool_.release(id);
}

std::size_t EventLoop::run_batch() {
  for (;;) {
    if (ready_.empty()) {
      // Refill: surface the earliest pending timestamp from the heap,
      // dropping stale (cancelled) tops on the way. Repeated pop_heap
      // yields ascending (when, seq), so the ready run is already in
      // scheduling order.
      while (!heap_.empty() && pool_.get(heap_.front().id) == nullptr) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      }
      if (heap_.empty()) return 0;
      const TimePoint when = heap_.front().when;
      now_ = when;
      do {
        ready_.push_back(heap_.front().id);
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      } while (!heap_.empty() && heap_.front().when == when);
    }

    // Fast path: a lone ready event skips the batch-buffer shuffle. It
    // may still be stale (cancelled after entering the FIFO) — loop on.
    if (ready_.size() == 1) {
      const EventId id = ready_.back();
      ready_.clear();
      EventFn* slot = pool_.get(id);
      if (slot == nullptr) continue;
      EventFn fn = std::move(*slot);
      pool_.release(id);
      obs::ScopedTimer timer(obs::Sub::kLoop);
      obs::count(obs::Sub::kLoop);
      fn();
      return 1;
    }

    // Swap the ready run into a recycled batch buffer before executing
    // anything: callbacks append their zero-delay schedules to the (now
    // empty) ready FIFO, which forms the next batch — their seq is
    // necessarily higher, so ordering matches one-at-a-time dispatch.
    std::vector<EventId> batch;
    if (!scratch_.empty()) {
      batch = std::move(scratch_.back());
      scratch_.pop_back();
    }
    batch.swap(ready_);
    std::size_t executed = 0;
    {
      // One profile scope per batch instead of per event; nested
      // subsystem scopes still carve out their own exclusive segments,
      // so attribution is unchanged — only the per-event open/close
      // overhead goes away.
      obs::ScopedTimer timer(obs::Sub::kLoop);
      for (const EventId id : batch) {
        // Re-check liveness at execution: an earlier batch member may
        // have cancelled this event (stale handles dereference to
        // nullptr even if the slot was re-acquired for a new event).
        EventFn* slot = pool_.get(id);
        if (slot == nullptr) continue;
        // Move the callback out and free its slot before running: the
        // callback may schedule (growing the slab) or cancel.
        EventFn fn = std::move(*slot);
        pool_.release(id);
        obs::count(obs::Sub::kLoop);
        fn();
        ++executed;
      }
    }
    batch.clear();
    scratch_.push_back(std::move(batch));
    // A batch can execute nothing if every member was cancelled after
    // entering the FIFO; more work may still be pending — loop on.
    if (executed != 0) return executed;
  }
}

std::size_t EventLoop::run() {
  // run_batch returns 0 only when nothing is runnable (it loops past
  // fully-cancelled batches internally).
  std::size_t executed = 0;
  while (const std::size_t n = run_batch()) executed += n;
  return executed;
}

void EventLoop::advance_to(TimePoint when) {
  if (pending() != 0) {
    throw std::logic_error("EventLoop::advance_to with pending events");
  }
  heap_.clear();  // only stale entries can remain; drop them
  ready_.clear();
  if (when > now_) now_ = when;
}

}  // namespace catalyst::netsim
