// Deterministic fault injection for the simulated network.
//
// The paper evaluates CacheCatalyst on clean throttled links; production
// networks lose responses, stall transfers, and take origins down. This
// layer injects those faults *deterministically*: every per-request
// decision is a pure function of (fault_seed, stream, request_ordinal) —
// the same keying discipline as the fleet's per-user RNG — so a faulty
// fleet run is bit-identical across thread counts and repeat runs.
//
// Fault taxonomy (mutually exclusive per request, drawn from one uniform):
//   * mid-stream drop  — the response transfer is cut after a fraction of
//     its bytes; the connection surfaces an error (think TCP RST), the
//     client can retry immediately.
//   * stall            — the response is cut silently; nothing ever
//     arrives and no error is raised. Only a client deadline timer
//     recovers from this.
// Orthogonally, the origin may be inside a scheduled outage window, in
// which case requests reaching it vanish into a blackhole (stall
// semantics) regardless of the per-request draw.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace catalyst::netsim {

/// Fault-injection knobs. All rates are per-request probabilities in
/// [0, 1]; everything at zero (the default) disables the layer entirely —
/// no RNG is consulted and no behaviour changes.
struct FaultSpec {
  /// Probability the response transfer fails mid-stream with a
  /// detectable connection error.
  double loss_rate = 0.0;

  /// Probability the response transfer stalls silently (no error; the
  /// client's deadline timer is the only way out).
  double stall_rate = 0.0;

  /// Fraction of each hour during which origins are dark: requests
  /// arriving at a dark origin get neither an answer nor an error. The
  /// window's phase within the hour is derived from `fault_seed`.
  double outage_fraction = 0.0;

  /// Master seed for all fault decisions.
  std::uint64_t fault_seed = 2024;

  /// Decision stream, forked off the seed — fleet runs key this by
  /// user id so fault schedules are independent of sharding/threading.
  std::uint64_t stream = 0;

  /// True when any knob is active (the testbed only wires the fault
  /// layer in then — pay-for-what-you-use).
  bool any() const {
    return loss_rate > 0.0 || stall_rate > 0.0 || outage_fraction > 0.0;
  }
};

/// What happens to one request.
struct FaultDecision {
  bool drop_mid_stream = false;
  bool stall = false;
  /// Fraction of the response bytes that make it onto the wire before a
  /// drop/stall cuts the transfer (those bytes still occupy the link and
  /// are counted as waste).
  double progress_fraction = 1.0;
};

/// Issues per-request fault decisions and answers outage-window queries.
/// The i-th next_request() call returns a pure function of
/// (spec.fault_seed, spec.stream, i), independent of wall time, thread
/// interleaving, or any other FaultPlan instance.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultSpec& spec);

  /// Decision for the next request on this plan's stream.
  FaultDecision next_request();

  /// True when origins are inside an outage window at `now`. Pure in
  /// (spec, now): all plans with the same seed agree on the schedule.
  bool origin_dark(TimePoint now) const;

  std::uint64_t requests_decided() const { return ordinal_; }

 private:
  FaultSpec spec_;
  std::uint64_t ordinal_ = 0;
  double outage_phase_seconds_ = 0.0;
};

}  // namespace catalyst::netsim
