#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "guard/lexer.h"
#include "guard/status.h"
#include "log/logger.h"

/// \file flags.h
/// The command-line tools' one argv front end. `FlagReader` walks argv a
/// flag at a time and converts values with checks instead of atoi/atof
/// coercion: a number must be the whole token (guard::parse_number), fit
/// its type, be finite when floating, and lie in the flag's domain; an
/// enum name must be in its table. The first value that fails is kept and
/// reported as one `cli.bad_flag` event once the tool's logger is up, and
/// the tool exits 1 -- the same contract as a missing value or an unknown
/// flag, which the caller turns into usage text.
///
///   log::FlagReader f(argc, argv);
///   while (f.next()) {
///     bool have = true;
///     if (f.flag() == "--threads")
///       have = f.number(a.threads, log::at_least(0));
///     ...
///     if (!have) return std::nullopt;  // value missing: usage
///   }
///   // after log::CliLogger is constructed:
///   if (f.bad()) return f.report_bad();

namespace gcr::log {

/// Domain of a numeric flag: `v >= lo`.
template <typename T>
[[nodiscard]] constexpr auto at_least(T lo) {
  return [lo](T v) { return v >= lo; };
}

/// Domain of a numeric flag: `lo <= v <= hi`.
template <typename T>
[[nodiscard]] constexpr auto between(T lo, T hi) {
  return [lo, hi](T v) { return lo <= v && v <= hi; };
}

class FlagReader {
 public:
  FlagReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Step to the next argument; false past the end of argv.
  bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  [[nodiscard]] const std::string& flag() const { return flag_; }

  /// The current flag's value; false when argv ends first.
  bool value(std::string& dst) {
    if (i_ + 1 >= argc_) return false;
    dst = argv_[++i_];
    return true;
  }

  /// The current flag's value through `convert` (string_view ->
  /// std::optional<V>); a nullopt keeps `dst` and records the value as
  /// bad. False only when the value is missing.
  template <typename T, typename Convert>
  bool value(T& dst, Convert convert) {
    std::string v;
    if (!value(v)) return false;
    if (auto x = convert(std::string_view(v))) dst = *x;
    else reject(v);
    return true;
  }

  /// A whole-token number of dst's type (or value type, for a
  /// std::optional) that is finite and satisfies `in_domain`.
  template <typename T, typename Domain>
  bool number(T& dst, Domain in_domain) {
    using V = typename Unwrap<T>::type;
    return value(dst, [&](std::string_view v) -> std::optional<V> {
      V x{};
      if (!guard::parse_number(v, x)) return std::nullopt;
      if constexpr (std::is_floating_point_v<V>)
        if (!std::isfinite(x)) return std::nullopt;
      if (!in_domain(x)) return std::nullopt;
      return x;
    });
  }
  template <typename T>
  bool number(T& dst) {
    return number(dst, [](const auto&) { return true; });
  }

  /// True once some flag value was rejected.
  [[nodiscard]] bool bad() const { return !bad_flag_.empty(); }
  /// Log the first rejected value as `cli.bad_flag`; returns the usage
  /// exit code for main() to return.
  [[nodiscard]] int report_bad() const {
    GCR_LOG_ERROR("cli.bad_flag").kv("flag", bad_flag_).kv("value", bad_value_);
    return guard::kExitUsage;
  }

 private:
  template <typename T>
  struct Unwrap {
    using type = T;
  };
  template <typename T>
  struct Unwrap<std::optional<T>> {
    using type = T;
  };

  void reject(const std::string& v) {
    if (bad()) return;
    bad_flag_ = flag_;
    bad_value_ = v;
  }

  int argc_;
  char** argv_;
  int i_{0};
  std::string flag_;
  std::string bad_flag_, bad_value_;
};

}  // namespace gcr::log
