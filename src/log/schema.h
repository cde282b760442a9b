#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

/// \file schema.h
/// Validation and field extraction for the two JSONL line schemas the
/// logger emits -- `gcr.event` v2 and `gcr.snapshot` v2 -- shared by the
/// `gcr_events` tool and log_test so "the tool accepts it" and "the test
/// accepts it" can never drift apart. docs/observability.md documents
/// both layouts field by field.

namespace gcr::log {

enum class LineKind { Event, Snapshot };

/// The fields a consumer filters or aggregates on, pulled out of one
/// validated line.
struct LineInfo {
  LineKind kind{LineKind::Event};
  std::string level;  ///< events only
  std::string event;  ///< event name; empty for snapshots
  std::string phase;
  double t_ms{0.0};
  std::uint64_t suppressed{0};
  std::uint64_t seq{0};  ///< snapshots only
};

/// Schema problems of one parsed JSONL line; empty = valid. Unknown
/// top-level schemas are a problem (the stream is ours end to end).
[[nodiscard]] std::vector<std::string> validate_line(
    const obs::json::Value& doc);

/// Extract LineInfo from a line that validate_line accepted.
[[nodiscard]] std::optional<LineInfo> parse_line(const obs::json::Value& doc);

}  // namespace gcr::log
