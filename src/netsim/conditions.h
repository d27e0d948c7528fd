// Network throttling profiles — the throughput × latency grid of the
// paper's Figure 3, plus the 5G-median condition it highlights
// (60 Mbps / 40 ms).
#pragma once

#include <string>

#include "netsim/faults.h"
#include "util/types.h"

namespace catalyst::netsim {

struct NetworkConditions {
  Bandwidth downlink = mbps(60);
  Bandwidth uplink = mbps(12);
  Duration rtt = milliseconds(40);  // client <-> origin round trip

  /// Fault-injection knobs; all zero by default (no fault layer wired).
  FaultSpec faults;

  std::string label() const;

  /// Median global 5G access per the paper (§4): 60 Mbps / 40 ms.
  static NetworkConditions median_5g();

  /// The low-throughput end of Figure 3: 8 Mbps.
  static NetworkConditions low_throughput(Duration rtt);
};

}  // namespace catalyst::netsim
