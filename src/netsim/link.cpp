#include "netsim/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace catalyst::netsim {

namespace {
// Completion tolerance: fluid arithmetic leaves sub-byte residuals, and an
// ETA that rounds to zero nanoseconds must not spin the loop — anything
// closer than a millibyte is done.
constexpr double kEpsilonBytes = 1e-3;
}  // namespace

Link::Link(EventLoop& loop, std::string name, Bandwidth capacity)
    : loop_(loop), name_(std::move(name)), capacity_(capacity),
      last_update_(loop.now()) {
  if (capacity.bits_per_second() <= 0.0) {
    throw std::invalid_argument("Link: capacity must be positive");
  }
}

TransferId Link::start_transfer(ByteCount bytes, EventFn on_done) {
  settle();
  const TransferId id = next_id_++;
  flows_.push_back(
      Flow{id, static_cast<double>(bytes), bytes, std::move(on_done)});
  reschedule();
  return id;
}

void Link::settle() {
  const TimePoint now = loop_.now();
  const double dt = to_seconds(now - last_update_);
  last_update_ = now;
  if (flows_.empty() || dt <= 0.0) return;
  busy_seconds_ += dt;
  const double per_flow_rate =
      capacity_.bytes_per_second() / static_cast<double>(flows_.size());
  for (Flow& f : flows_) {
    f.remaining_bytes = std::max(0.0, f.remaining_bytes - per_flow_rate * dt);
  }
}

void Link::reschedule() {
  if (event_armed_) {
    loop_.cancel(pending_event_);
    event_armed_ = false;
  }
  if (flows_.empty()) return;
  double min_remaining = flows_.front().remaining_bytes;
  for (const Flow& f : flows_) {
    min_remaining = std::min(min_remaining, f.remaining_bytes);
  }
  const double per_flow_rate =
      capacity_.bytes_per_second() / static_cast<double>(flows_.size());
  Duration eta = (min_remaining <= kEpsilonBytes)
                     ? Duration::zero()
                     : seconds_f(min_remaining / per_flow_rate);
  // Guarantee forward progress: a positive residual must never produce a
  // zero-delay event (it would re-settle with dt == 0 forever).
  if (min_remaining > kEpsilonBytes && eta <= Duration::zero()) {
    eta = nanoseconds(1);
  }
  pending_event_ = loop_.schedule_after(eta, [this] { on_completion(); });
  event_armed_ = true;
}

void Link::on_completion() {
  event_armed_ = false;
  settle();
  // Collect every flow that has finished (ties complete together).
  std::vector<Flow> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->remaining_bytes <= kEpsilonBytes) {
      done.push_back(std::move(*it));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  reschedule();
  for (Flow& f : done) {
    bytes_delivered_ += f.total_bytes;
    if (f.on_done) f.on_done();
  }
}

}  // namespace catalyst::netsim
