#include "netsim/conditions.h"

#include "util/strings.h"

namespace catalyst::netsim {

std::string NetworkConditions::label() const {
  return str_format("%.0fMbps/%.0fms", downlink.bits_per_second() / 1e6,
                    to_millis(rtt));
}

NetworkConditions NetworkConditions::median_5g() {
  return NetworkConditions{mbps(60), mbps(12), milliseconds(40), false, {}};
}

NetworkConditions NetworkConditions::low_throughput(Duration rtt) {
  return NetworkConditions{mbps(8), mbps(2), rtt, false, {}};
}

}  // namespace catalyst::netsim
