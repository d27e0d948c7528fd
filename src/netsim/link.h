// Unidirectional fluid-flow link with processor-sharing bandwidth.
//
// Concurrent transfers (a browser opens up to six connections per origin)
// share the access-link capacity. We model the classic fluid approximation:
// at any instant each of the n active flows progresses at capacity/n. The
// event-driven solution is exact for piecewise-constant rates — on every
// arrival or departure we settle the elapsed progress and reschedule the
// next completion. This reproduces what the paper's Chrome throttling
// (token-bucket shaping) does to transfer times without simulating packets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/event_loop.h"
#include "util/types.h"

namespace catalyst::netsim {

/// Identifies an in-flight transfer on a link.
using TransferId = std::uint64_t;

class Link {
 public:
  /// `name` is used in traces; `capacity` must be positive.
  Link(EventLoop& loop, std::string name, Bandwidth capacity);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Starts transferring `bytes`; `on_done` fires on the event loop when the
  /// last byte has been clocked onto the wire. Zero-byte transfers complete
  /// on the next loop iteration at the current time.
  TransferId start_transfer(ByteCount bytes, EventFn on_done);

  Bandwidth capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  /// Total payload bytes that have completed transfer on this link.
  ByteCount bytes_delivered() const { return bytes_delivered_; }

  /// Seconds·flows integral — used to validate capacity conservation.
  double busy_seconds() const { return busy_seconds_; }

 private:
  struct Flow {
    TransferId id;
    double remaining_bytes;
    ByteCount total_bytes;
    EventFn on_done;
  };

  /// Applies progress for the interval [last_update_, now].
  void settle();

  /// Cancels and re-arms the next-completion event.
  void reschedule();

  void on_completion();

  EventLoop& loop_;
  std::string name_;
  Bandwidth capacity_;
  std::vector<Flow> flows_;
  TimePoint last_update_{};
  EventId pending_event_ = 0;
  bool event_armed_ = false;
  TransferId next_id_ = 1;
  ByteCount bytes_delivered_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace catalyst::netsim
