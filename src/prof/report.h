#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.h"
#include "prof/hwcounters.h"
#include "prof/sampler.h"

/// \file report.h
/// The `gcr.profile_report` v2 sidecar: everything gcr::prof measured
/// about one run, in one schema-validated JSON document.
///
/// Layout (version 2):
///   schema            "gcr.profile_report"
///   version           2
///   tool              producing tool, e.g. "gcr_route" or "gcr_bench/route"
///   sampler           { interval_us, ticks, torn,
///                       profile: [ {phase, self, total} ... ] }  // self desc
///   hw                "perf_event" | "unavailable"
///   hw_counters       [ 4 slot names ]  // meaning depends on `hw`
///   phases            obs phase forest (with per-phase "hw" objects when
///                     counters were attached)  -- optional
///   counters/gauges/histograms                 -- metrics snapshot
///
/// `"hw": "unavailable"` is the explicit fallback marker: the hw_counters
/// slots then hold rusage deltas, not PMU counts. Consumers must branch on
/// it rather than comparing rusage numbers against cycle counts.
///
/// `validate_profile_report` is wired into `gcr_benchdiff --validate`,
/// which dispatches on the document's "schema" field, so bench and profile
/// sidecars ride the same CI validation leg.

namespace gcr::obs {
class Session;
}  // namespace gcr::obs

namespace gcr::prof {

inline constexpr int kProfileReportVersion = 2;

struct ProfileReportOptions {
  std::string tool;                          ///< e.g. "gcr_route"
  const Sampler::Profile* profile{nullptr};  ///< nullptr: sampler not run
  const obs::Session* session{nullptr};      ///< nullptr: omit phase forest
  HwInfo hw;  ///< from enable_hw_counters()
};

void write_profile_report(std::ostream& os, const ProfileReportOptions& opts);

/// Shape-check a parsed profile report; one human-readable problem per
/// violation, empty when valid (same contract as validate_bench_report).
[[nodiscard]] std::vector<std::string> validate_profile_report(
    const obs::json::Value& doc);

}  // namespace gcr::prof
