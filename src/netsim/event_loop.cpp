#include "netsim/event_loop.h"

#include <algorithm>
#include <stdexcept>

#include "obs/selfprof.h"

namespace catalyst::netsim {

EventId EventLoop::schedule_at(TimePoint when, EventFn fn) {
  const EventId id = pool_.acquire();
  *pool_.get(id) = std::move(fn);
  heap_.push_back(Entry{std::max(when, now_), next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end());
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

std::size_t EventLoop::run() {
  // One profile scope per run; nested subsystem scopes still carve out
  // their own exclusive segments.
  obs::ScopedTimer timer(obs::Sub::kLoop);
  std::size_t executed = 0;
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    EventFn* slot = pool_.get(top.id);
    if (slot == nullptr) continue;  // cancelled
    now_ = top.when;
    // Move the callback out and free its slot before running: the
    // callback may schedule (growing the slab) or cancel.
    EventFn fn = std::move(*slot);
    pool_.release(top.id);
    obs::count(obs::Sub::kLoop);
    fn();
    ++executed;
  }
  return executed;
}

void EventLoop::advance_to(TimePoint when) {
  if (pending() != 0) {
    throw std::logic_error("EventLoop::advance_to with pending events");
  }
  heap_.clear();  // only stale entries can remain; drop them
  if (when > now_) now_ = when;
}

}  // namespace catalyst::netsim
