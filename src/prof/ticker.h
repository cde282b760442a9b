#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file ticker.h
/// The one periodic observer thread: interval phase sampling keyed to the
/// obs phase tree, and continuous `gcr.snapshot` telemetry, on one tick.
///
/// The thread waits on a condition variable until a drift-free absolute
/// steady-clock deadline -- at the sampling period when sampling, otherwise
/// at the snapshot period -- and per tick does either or both of the two
/// jobs below. stop() wakes it at once, so a long snapshot period does not
/// hold the process open after the run ends.
///
///   * **Sampling.** Read every thread's open ScopedTimer phases from the
///     event recorder's seqlock'd phase stacks (prof/recorder.h) and credit
///     `self` +1 to the innermost open phase and `total` +1 to every
///     distinct phase name on the stack. The result is a flat self/total
///     profile keyed to the same phase names as `PhaseStats`: a phase open
///     on 95% of ticks but `self` on 5% delegates its time to children or
///     to other threads. The profiled threads pay nothing extra -- the
///     recorder keeps their phase stacks whether or not a ticker runs --
///     so the route bench group stays within the 2% gate CI enforces.
///     Snapshots torn by a concurrent push/pop are discarded and counted
///     in `Profile::torn`; a lost tick is not an error.
///   * **Snapshots.** Once the next absolute snapshot deadline has passed,
///     write one `gcr.snapshot` v2 JSONL line through the logger's sinks:
///     counter and histogram *deltas* since the previous snapshot (non-zero
///     entries only), current non-zero gauge values and the current RSS.
///     A tail snapshot is written at stop() so short runs still get one.
///     Snapshots go to a running Logger; without one they are discarded.

namespace gcr::prof {

class Ticker {
 public:
  struct Options {
    /// Phase-sampling period in microseconds (>= 50 enforced); 0 = no
    /// sampling. The GCR_PROF_INTERVAL_US environment variable overrides
    /// a non-zero value at start() -- the escape hatch for runs much
    /// shorter than the 1 kHz default can resolve.
    int sample_us{1000};
    /// `gcr.snapshot` period in milliseconds; 0 = no snapshots.
    int snapshot_ms{0};
  };

  struct Entry {
    std::string phase;
    std::uint64_t self{0};
    std::uint64_t total{0};
  };

  struct Profile {
    int interval_us{0};      ///< sampling period, 0 when not sampling
    std::uint64_t ticks{0};  ///< sampling ticks taken
    std::uint64_t torn{0};   ///< per-thread snapshots discarded as torn
    std::vector<Entry> entries;  ///< sorted by self desc, then name
    std::uint64_t snapshots{0};  ///< gcr.snapshot lines written
  };

  Ticker();
  ~Ticker();  ///< stops implicitly if still running
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Launch the tick thread. No-op when already running or when both
  /// periods are 0.
  void start(const Options& opts);

  /// Join the tick thread, write the tail snapshot (when snapshotting) and
  /// return the accumulated profile. Empty when never started.
  Profile stop();

  [[nodiscard]] bool running() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gcr::prof
