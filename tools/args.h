// Strict command-line parsing shared by fleetsim and difftest.
//
// A tool names every flag it reads: value flags ("--name value"),
// switches ("--name", never consuming the next token) and an inclusive
// [min, max] range for each numeric value flag. Anything else is a usage
// error: an unknown or misspelt flag, a stray token, or a numeric value
// that does not parse completely or lies outside its range. A typo must
// not silently run something other than what was asked for.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "util/strings.h"

namespace catalyst::tools {

/// Upper bounds for flags cast to an integer field.
constexpr double kMaxU64 = 0x1p64 - 0x1p11;  // largest double below 2^64
constexpr double kMaxI32 = 0x1p31 - 1;       // INT_MAX

/// Inclusive range one numeric flag must parse into.
struct NumericFlag {
  const char* name;
  double min;
  double max;
};

class Args {
 public:
  Args(int argc, char** argv, std::span<const std::string_view> value_flags,
       std::span<const std::string_view> switches,
       std::span<const NumericFlag> numeric) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view token = argv[i];
      const std::string_view name =
          token.starts_with("--") ? token.substr(2) : std::string_view();
      const bool takes_value =
          std::ranges::find(value_flags, name) != value_flags.end();
      if (!takes_value && std::ranges::find(switches, name) == switches.end()) {
        error_ = str_format("unknown argument '%s'", argv[i]);
        return;
      }
      std::string& value = values_[std::string(name)];
      if (takes_value && i + 1 < argc &&
          !std::string_view(argv[i + 1]).starts_with("--")) {
        value = argv[++i];
      }
    }
    for (const auto& [name, min, max] : numeric) {
      const auto it = values_.find(name);
      if (it == values_.end()) continue;
      const char* text = it->second.c_str();
      char* end = nullptr;
      const double v = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(v >= min && v <= max)) {
        error_ = str_format("--%s must be a number in [%g, %g] (got \"%s\")",
                            name, min, max, text);
        return;
      }
    }
  }

  /// Why the command line was rejected, or empty when it parsed.
  const std::string& error() const { return error_; }

  bool has(const std::string& key) const { return values_.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// A numeric flag's value (already checked against its range), or
  /// `fallback` when absent.
  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

}  // namespace catalyst::tools
