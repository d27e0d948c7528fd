#include "http/date.h"

#include <array>

#include "util/strings.h"

namespace catalyst::http {

namespace {

constexpr std::array<std::string_view, 7> kDays = {
    "Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"};
constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

constexpr bool is_leap(std::int64_t y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

constexpr std::array<int, 12> kMonthDays = {31, 28, 31, 30, 31, 30,
                                            31, 31, 30, 31, 30, 31};

struct CivilDate {
  std::int64_t year;
  int month;  // 1..12
  int day;    // 1..31
  int weekday;  // 0 = Sunday
  int hour, minute, second;
};

CivilDate civil_from_unix(std::int64_t unix_seconds) {
  std::int64_t days = unix_seconds / 86400;
  std::int64_t rem = unix_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  CivilDate out{};
  out.hour = static_cast<int>(rem / 3600);
  out.minute = static_cast<int>((rem % 3600) / 60);
  out.second = static_cast<int>(rem % 60);
  out.weekday = static_cast<int>(((days % 7) + 7 + 4) % 7);  // 1970-01-01 Thu
  std::int64_t year = 1970;
  while (true) {
    const std::int64_t len = is_leap(year) ? 366 : 365;
    if (days >= len) {
      days -= len;
      ++year;
    } else {
      break;
    }
  }
  out.year = year;
  int month = 0;
  while (true) {
    int len = kMonthDays[static_cast<std::size_t>(month)];
    if (month == 1 && is_leap(year)) len = 29;
    if (days >= len) {
      days -= len;
      ++month;
    } else {
      break;
    }
  }
  out.month = month + 1;
  out.day = static_cast<int>(days) + 1;
  return out;
}

std::optional<std::int64_t> unix_from_civil(std::int64_t year, int month,
                                            int day, int hour, int minute,
                                            int second) {
  if (year < 1970 || month < 1 || month > 12 || day < 1 || hour > 23 ||
      minute > 59 || second > 60) {
    return std::nullopt;
  }
  std::int64_t days = 0;
  for (std::int64_t y = 1970; y < year; ++y) days += is_leap(y) ? 366 : 365;
  for (int m = 0; m < month - 1; ++m) {
    days += kMonthDays[static_cast<std::size_t>(m)];
    if (m == 1 && is_leap(year)) ++days;
  }
  int month_len = kMonthDays[static_cast<std::size_t>(month - 1)];
  if (month == 2 && is_leap(year)) month_len = 29;
  if (day > month_len) return std::nullopt;
  days += day - 1;
  return days * 86400 + hour * 3600 + minute * 60 + second;
}

int month_index(std::string_view name) {
  for (int i = 0; i < 12; ++i) {
    if (name == kMonths[static_cast<std::size_t>(i)]) return i + 1;
  }
  return 0;
}

}  // namespace

std::string format_http_date(TimePoint t) {
  const std::int64_t unix_seconds =
      kEpochUnixSeconds +
      std::chrono::duration_cast<std::chrono::seconds>(t.since_epoch())
          .count();
  const CivilDate c = civil_from_unix(unix_seconds);
  const std::string_view day_name = kDays[static_cast<std::size_t>(c.weekday)];
  const std::string_view month_name =
      kMonths[static_cast<std::size_t>(c.month - 1)];
  if (c.year < 1000 || c.year > 9999 || c.day < 1) {
    // Not a fixed-width IMF-fixdate; render it the way printf would.
    return str_format("%.*s, %02d %.*s %04lld %02d:%02d:%02d GMT", 3,
                      day_name.data(), c.day, 3, month_name.data(),
                      static_cast<long long>(c.year), c.hour, c.minute,
                      c.second);
  }
  // "Thu, 01 Jan 2026 00:00:00 GMT": 29 bytes at fixed offsets.
  std::string out = "Ddd, 00 Mmm 0000 00:00:00 GMT";
  const auto put2 = [&out](std::size_t at, int value) {
    out[at] = static_cast<char>('0' + value / 10);
    out[at + 1] = static_cast<char>('0' + value % 10);
  };
  out.replace(0, 3, day_name);
  put2(5, c.day);
  out.replace(8, 3, month_name);
  put2(12, static_cast<int>(c.year / 100));
  put2(14, static_cast<int>(c.year % 100));
  put2(17, c.hour);
  put2(20, c.minute);
  put2(23, c.second);
  return out;
}

std::optional<TimePoint> parse_http_date(std::string_view text) {
  // "Thu, 01 Jan 2026 00:00:00 GMT" — fixed widths.
  text = trim(text);
  if (text.size() != 29) return std::nullopt;
  if (text.substr(3, 2) != ", " || text.substr(25) != " GMT") {
    return std::nullopt;
  }
  std::uint64_t day = 0, year = 0, hour = 0, minute = 0, second = 0;
  if (!parse_u64(text.substr(5, 2), day) ||
      !parse_u64(text.substr(12, 4), year) ||
      !parse_u64(text.substr(17, 2), hour) ||
      !parse_u64(text.substr(20, 2), minute) ||
      !parse_u64(text.substr(23, 2), second)) {
    return std::nullopt;
  }
  const int month = month_index(text.substr(8, 3));
  if (month == 0) return std::nullopt;
  if (text[11] != ' ' || text[16] != ' ' || text[19] != ':' ||
      text[22] != ':') {
    return std::nullopt;
  }
  const auto unix_seconds = unix_from_civil(
      static_cast<std::int64_t>(year), month, static_cast<int>(day),
      static_cast<int>(hour), static_cast<int>(minute),
      static_cast<int>(second));
  if (!unix_seconds) return std::nullopt;
  return TimePoint{seconds(*unix_seconds - kEpochUnixSeconds)};
}

}  // namespace catalyst::http
