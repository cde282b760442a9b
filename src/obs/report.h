#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/router.h"
#include "obs/json.h"
#include "obs/session.h"
#include "prof/hwcounters.h"
#include "prof/ticker.h"

/// \file report.h
/// The `gcr.run_report` v2 document: the one per-run report, with one
/// writer and one validator. Always present at the top level: `schema`,
/// `version`, `tool`, `generated`, `phases` and the metrics snapshot
/// (`counters`/`gauges`/`histograms`). Two optional groups:
///
///   * `options` + `result` when a route ran (RouterOptions, the final
///     switched-capacitance and delay numbers);
///   * `sampler` + `hw`/`hw_source`/`hw_counters` when profiling ran (the
///     prof::Ticker self/total profile and the per-phase counter source).
///     `"hw": "unavailable"` is the explicit fallback marker: the
///     `hw_counters` slots then name rusage deltas, not PMU counts.
///
/// Bump `kReportVersion` on breaking layout changes and note it in
/// docs/observability.md. Bench reports (`gcr.bench_report`) live in
/// `perf/report.h`: the statistical bench runner produces them.
///
/// This target (`gcr_obs_report`) knows the router's and the profiler's
/// types, which is why it sits above `gcr_core` and `gcr_prof` in the link
/// graph; the base `gcr_obs` has no dependencies so every layer can link it.

namespace gcr::obs {

inline constexpr int kReportVersion = 2;

/// What one run report carries beyond the always-present sections.
struct RunReport {
  std::string tool;  ///< e.g. "gcr_route" or "gcr_bench/route"
  /// A routed run: both set, or both null to omit `options` + `result`.
  const core::RouterOptions* options{nullptr};
  const core::RouterResult* result{nullptr};
  /// A profiled run: the ticker's profile, and `hw` from
  /// prof::enable_hw_counters(); null omits `sampler` and the hw keys.
  const prof::Ticker::Profile* profile{nullptr};
  prof::HwInfo hw;
};

void write_run_report(std::ostream& os, const Session& session,
                      const RunReport& report);

/// Shape-check a parsed run report: one human-readable problem per
/// violation, empty when valid (same contract as validate_bench_report).
[[nodiscard]] std::vector<std::string> validate_run_report(
    const json::Value& doc);

}  // namespace gcr::obs
