#include "netsim/network.h"

#include <algorithm>
#include <stdexcept>

namespace catalyst::netsim {

Host::Host(EventLoop& loop, std::string name, const HostSpec& spec)
    : name_(std::move(name)),
      uplink_(std::make_unique<Link>(loop, name_ + ":up", spec.uplink)),
      downlink_(std::make_unique<Link>(loop, name_ + ":down", spec.downlink)) {
}

Host& Network::add_host(const std::string& name, const HostSpec& spec) {
  if (hosts_.contains(name)) {
    throw std::invalid_argument("Network: duplicate host " + name);
  }
  auto host = std::make_unique<Host>(loop_, name, spec);
  Host& ref = *host;
  hosts_.emplace(name, std::move(host));
  return ref;
}

Host& Network::host(const std::string& name) {
  if (const auto it = hosts_.find(name); it != hosts_.end()) {
    return *it->second;
  }
  throw std::out_of_range("Network: unknown host " + name);
}

bool Network::has_host(const std::string& name) const {
  return hosts_.contains(name);
}

void Network::set_rtt(const std::string& a, const std::string& b,
                      Duration rtt) {
  if (!has_host(a) || !has_host(b)) {
    throw std::out_of_range("Network: set_rtt on unknown host");
  }
  const auto [lo, hi] = std::minmax(a, b);
  for (RttPair& pair : rtts_) {
    if (pair.lo == lo && pair.hi == hi) {
      pair.rtt = rtt;
      return;
    }
  }
  rtts_.push_back(RttPair{lo, hi, rtt});
}

Duration Network::rtt(const std::string& a, const std::string& b) const {
  const auto [lo, hi] = std::minmax(a, b);
  for (const RttPair& pair : rtts_) {
    if (pair.lo == lo && pair.hi == hi) return pair.rtt;
  }
  throw std::out_of_range("Network: no RTT configured for " + a + "<->" + b);
}

void Network::send_bytes(const std::string& from, const std::string& to,
                         ByteCount bytes, EventFn on_delivered) {
  Host& sender = host(from);
  Host& receiver = host(to);
  const Duration propagation = one_way(from, to);
  total_bytes_ += bytes;

  // The slower of (sender uplink, receiver downlink) is the bottleneck and
  // the contention point; ties go to the receiver's downlink so client
  // downloads always contend on the client's access link.
  Link& bottleneck =
      (sender.uplink().capacity() < receiver.downlink().capacity())
          ? sender.uplink()
          : receiver.downlink();

  bottleneck.start_transfer(bytes, [this, propagation,
                                    cb = std::move(on_delivered)]() mutable {
    loop_.schedule_after(propagation, std::move(cb));
  });
}

}  // namespace catalyst::netsim
