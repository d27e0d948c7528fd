// Core value types shared by every catalyst subsystem.
//
// The simulator runs on a virtual clock with nanosecond resolution. We wrap
// std::chrono in a small set of strong types so that durations, absolute
// simulation times, bandwidths and byte counts cannot be mixed up silently.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <string>

namespace catalyst {

/// Length of a simulated time interval. Nanosecond resolution.
using Duration = std::chrono::nanoseconds;

/// Convenience duration constructors (accept integral or floating counts).
constexpr Duration nanoseconds(std::int64_t n) { return Duration{n}; }
constexpr Duration microseconds(std::int64_t n) { return Duration{n * 1000}; }
constexpr Duration milliseconds(std::int64_t n) {
  return Duration{n * 1'000'000};
}
constexpr Duration seconds(std::int64_t n) {
  return Duration{n * 1'000'000'000};
}
constexpr Duration minutes(std::int64_t n) { return seconds(n * 60); }
constexpr Duration hours(std::int64_t n) { return seconds(n * 3600); }
constexpr Duration days(std::int64_t n) { return hours(n * 24); }

/// Fractional-second duration (rounds to whole nanoseconds).
constexpr Duration seconds_f(double s) {
  return Duration{static_cast<std::int64_t>(s * 1e9)};
}
constexpr Duration milliseconds_f(double ms) { return seconds_f(ms / 1e3); }

constexpr double to_seconds(Duration d) {
  return static_cast<double>(d.count()) / 1e9;
}
constexpr double to_millis(Duration d) {
  return static_cast<double>(d.count()) / 1e6;
}

/// An absolute instant on the simulation clock (time since simulation
/// epoch). Strongly typed so it cannot be confused with a Duration.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  constexpr explicit TimePoint(Duration since_epoch)
      : since_epoch_(since_epoch) {}

  constexpr Duration since_epoch() const { return since_epoch_; }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint{since_epoch_ + d};
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint{since_epoch_ - d};
  }
  constexpr Duration operator-(TimePoint other) const {
    return since_epoch_ - other.since_epoch_;
  }
  constexpr TimePoint& operator+=(Duration d) {
    since_epoch_ += d;
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  Duration since_epoch_{0};
};

/// Number of bytes (payload sizes, wire sizes, cache capacities).
using ByteCount = std::uint64_t;

constexpr ByteCount KiB(std::uint64_t n) { return n * 1024; }
constexpr ByteCount MiB(std::uint64_t n) { return n * 1024 * 1024; }

/// Link capacity. Stored as bits per second to match how network conditions
/// are quoted in the paper (8 Mbps, 60 Mbps, ...).
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  constexpr explicit Bandwidth(double bits_per_second)
      : bits_per_second_(bits_per_second) {}

  constexpr double bits_per_second() const { return bits_per_second_; }
  constexpr double bytes_per_second() const { return bits_per_second_ / 8.0; }

  /// Time to clock `bytes` onto the wire at this rate.
  constexpr Duration transmission_time(ByteCount bytes) const {
    return seconds_f(static_cast<double>(bytes) / bytes_per_second());
  }

  constexpr auto operator<=>(const Bandwidth&) const = default;

 private:
  double bits_per_second_{0.0};
};

constexpr Bandwidth bps(double n) { return Bandwidth{n}; }
constexpr Bandwidth kbps(double n) { return Bandwidth{n * 1e3}; }
constexpr Bandwidth mbps(double n) { return Bandwidth{n * 1e6}; }
constexpr Bandwidth gbps(double n) { return Bandwidth{n * 1e9}; }

/// Renders a duration as a short human-readable string ("12.3 ms").
std::string format_duration(Duration d);

/// Renders a byte count as a short human-readable string ("1.2 MiB").
std::string format_bytes(ByteCount n);

}  // namespace catalyst
