#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <string_view>

#include "core/design.h"
#include "guard/status.h"

/// \file validate.h
/// Semantic validation of a core::Design -- the single gate every entry
/// point (route(), all four CLIs, the fuzz harness) runs before touching
/// the geometry or activity kernels. The checks reject exactly the inputs
/// that previously produced UB, asserts, or silent nonsense:
///
///   GCR_E_NONFINITE        NaN/Inf/denormal coordinate or capacitance
///   GCR_E_RANGE            sink coordinate above kMaxCoordinate in magnitude
///   GCR_E_OUT_OF_DIE       sink outside the die area
///   GCR_E_CAP              negative (strict: also zero) load capacitance,
///                          or one above kMaxSinkCap
///   GCR_E_DUPLICATE        two sinks at identical coordinates (strict)
///   GCR_E_EMPTY            no sinks
///   GCR_E_DIE              inverted / empty / non-finite die box, or one
///                          with a bound above kMaxCoordinate in magnitude
///   GCR_E_MODULE_MISMATCH  rtl module count vs sinks / explicit map
///   GCR_E_STREAM_ID        stream instruction id outside [0, K)
///   GCR_E_RESOURCE         a configured Limits cap exceeded
///
/// Lenient mode (route()'s default) downgrades out-of-die, duplicate and
/// zero-cap findings to warnings -- the router can produce a tree for
/// those -- while strict mode (tools, fuzzing) makes them errors.

namespace gcr::guard {

/// NaN, Inf and denormals are all rejected as input values: denormals
/// survive arithmetic with silently degraded precision and flush-to-zero
/// inconsistency across build flags, so they are as untrustworthy in an
/// input file as a NaN.
[[nodiscard]] inline bool finite_normal(double v) {
  const int cls = std::fpclassify(v);
  return cls == FP_NORMAL || cls == FP_ZERO;
}

/// Largest accepted sink load capacitance [pF], 1 uF. Clock-pin loads are
/// below 1 pF; a load near the double range overflows the Elmore branch
/// coefficients (a 1e308 pF sink makes the gated intercept infinite, and
/// the zero-skew merge then snakes by a NaN delay gap), so every reader and
/// validator rejects a larger cap as GCR_E_CAP.
inline constexpr double kMaxSinkCap = 1e6;

/// Largest accepted coordinate magnitude [lambda] (die bounds, sinks, ECO
/// targets): squared wire lengths times kMaxSinkCap stay finite. Checked as
/// an error everywhere, since out-of-die is only a lenient-mode warning.
inline constexpr double kMaxCoordinate = 1e9;

/// The first finding on an input point, or nullopt: a NaN, infinite or
/// denormal coordinate (GCR_E_NONFINITE) or one above kMaxCoordinate
/// (GCR_E_RANGE). The message starts with `what`.
[[nodiscard]] std::optional<Status> point_finding(const geom::Point& p,
                                                  std::string_view what);

/// The same for a sink, then its load: NaN, infinite or denormal
/// (GCR_E_NONFINITE), not positive, or above kMaxSinkCap (GCR_E_CAP).
[[nodiscard]] std::optional<Status> sink_finding(const ct::Sink& s,
                                                 std::string_view what);

/// What makes a die box unusable, or nullptr when nothing does: a bound
/// that is not finite, an empty or inverted area, or a bound above
/// kMaxCoordinate in magnitude. Each is a GCR_E_DIE finding.
[[nodiscard]] const char* die_problem(const geom::DieArea& die);

/// Resource caps. Zero disables a cap. Defaults are far above any design
/// in the test suite but low enough to fail fast on garbage.
struct Limits {
  std::size_t max_sinks{1u << 20};
  std::size_t max_stream_length{1u << 24};
  std::size_t max_instructions{1u << 20};
  std::size_t max_modules{1u << 20};

  [[nodiscard]] static Limits unlimited() { return Limits{0, 0, 0, 0}; }
};

struct ValidateOptions {
  Limits limits{};
  /// Strict: out-of-die / duplicate-coordinate / zero-cap sinks are errors.
  /// Lenient: they are warnings (the router tolerates them).
  bool strict{true};
};

/// Reports every finding into `diag`; true when no *errors* were added
/// (warnings alone do not fail validation). Range-checks the stream with
/// one scan of design.stream.
bool validate_design(const core::Design& design, Diag& diag,
                     const ValidateOptions& opts = {});

/// The same checks, with the stream's out-of-range summary already counted
/// (the router's ActivityAnalyzer holds it), so the stream is not rescanned.
bool validate_design(const core::Design& design,
                     const activity::StreamIdSummary& stream_ids, Diag& diag,
                     const ValidateOptions& opts);

}  // namespace gcr::guard
