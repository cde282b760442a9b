#pragma once

#include <cstdint>
#include <memory>

/// \file telemetry.h
/// Continuous `gcr.snapshot` v2 emission: a dedicated thread ticks on a
/// drift-free absolute monotonic deadline (the same clock_nanosleep
/// pattern as the prof sampler) and serializes, per tick,
///
///   * counter and histogram *deltas* since the previous tick (non-zero
///     entries only, so an idle process emits near-empty snapshots),
///   * current gauge values (gauges are levels, not rates),
///   * current RSS from /proc/self/statm,
///
/// as one JSONL line through the logger's sinks, turning the metrics
/// registry into the time-series a gcr_serve dashboard or an activity
/// drift detector consumes. A final snapshot is emitted at stop() so the
/// tail of a run is never lost to tick phase.

namespace gcr::log {

inline constexpr int kSnapshotSchemaVersion = 2;

class TelemetryEmitter {
 public:
  struct Options {
    int interval_ms{1000};  ///< clamped to >= 1
  };

  TelemetryEmitter();
  ~TelemetryEmitter();  ///< stops implicitly if still running
  TelemetryEmitter(const TelemetryEmitter&) = delete;
  TelemetryEmitter& operator=(const TelemetryEmitter&) = delete;

  /// Launch the tick thread. Requires a running Logger (snapshots go to
  /// its sinks); no-op when already running.
  void start(const Options& opts);

  /// Emit one final snapshot, join the tick thread. No-op when not
  /// running. Returns the number of snapshots emitted.
  std::uint64_t stop();

  [[nodiscard]] bool running() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Current resident set size in bytes (/proc/self/statm), 0 when the
/// proc interface is unavailable.
[[nodiscard]] std::uint64_t current_rss_bytes();

}  // namespace gcr::log
