#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file sampler.h
/// Interval sampling profiler keyed to the obs phase tree.
///
/// A dedicated sampler thread wakes on a fixed POSIX monotonic-clock
/// interval (clock_nanosleep with TIMER_ABSTIME, so tick times do not
/// drift) and reads every thread's open ScopedTimer phases from the event
/// recorder's seqlock'd phase stacks (prof/recorder.h). Each stable
/// snapshot credits:
///
///   * `self`  +1 to the innermost open phase,
///   * `total` +1 to every distinct phase name on the stack.
///
/// The result is a flat self/total profile keyed to the same phase names
/// as `PhaseStats`, i.e. "where was the time actually spent" at a
/// granularity the phase tree's wall-clock totals cannot give (a phase
/// that is open 95% of ticks but `self` on 5% is delegating its time to
/// children or to other threads). The profiled threads pay nothing extra: the
/// recorder keeps their phase stacks whether or not a sampler runs, so
/// starting one only adds the sampler thread -- the route bench group
/// stays within the 2% gate CI enforces.
///
/// Snapshots torn by a concurrent push/pop are discarded and counted in
/// `Profile::torn`; sampling is statistical, a lost tick is not an error.

namespace gcr::prof {

class Sampler {
 public:
  struct Options {
    /// Tick period (>= 50 enforced). The GCR_PROF_INTERVAL_US environment
    /// variable overrides this at start() -- the escape hatch for sampling
    /// runs much shorter than the 1 kHz default can resolve.
    int interval_us{1000};
  };

  struct Entry {
    std::string phase;
    std::uint64_t self{0};
    std::uint64_t total{0};
  };

  struct Profile {
    int interval_us{0};
    std::uint64_t ticks{0};  ///< sampling ticks taken
    std::uint64_t torn{0};   ///< per-thread snapshots discarded as torn
    std::vector<Entry> entries;  ///< sorted by self desc, then name
  };

  Sampler();
  ~Sampler();  ///< stops implicitly if still running
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Launch the sampler thread. No-op when already running.
  void start(const Options& opts);
  void start() { start(Options{}); }

  /// Join the sampler thread and return the accumulated profile. Returns
  /// an empty profile if never started.
  Profile stop();

  [[nodiscard]] bool running() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gcr::prof
