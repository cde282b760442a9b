#pragma once

#include <chrono>

#include "obs/timer.h"

/// \file session.h
/// A `Session` is one observed run: it owns the phase-timing tree and fixes
/// the time epoch phase timings are relative to. Metrics stay in the
/// process-global `Registry` (see metrics.h) and recorded events in the
/// per-thread recorder (prof/recorder.h, whose `Capture` is the Chrome
/// trace); a session duplicates neither.
///
/// Instrumented library code never receives a session explicitly -- the
/// caller binds one to the current thread around the work:
///
///   obs::Session session;
///   {
///     obs::Bind bind(&session);
///     ... construct router, route ...   // timers land in `session`
///   }
///   obs::write_run_report(os, session, {"tool", &opts, &result});
///
/// This keeps every public algorithm signature unchanged and makes the
/// disabled path (no session bound, the default) a thread-local null check.
/// A session is single-threaded by construction: bind it on the thread
/// doing the work.

namespace gcr::obs {

class Session {
 public:
  Session() : epoch_(std::chrono::steady_clock::now()) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Worker-thread view of `parent`: shares its time epoch but owns an
  /// independent phase tree, because PhaseTimers is single-threaded by
  /// construction. The clustered builder binds one of these on each lane
  /// it spawns (cts/clustered.cpp), so ScopedTimers inside a cell build
  /// still record their phases (for the trace, the sampler and the log's
  /// phase path) instead of being no-ops. A lane's phase tree is discarded
  /// with the view; the caller's `cluster_cells` phase holds the fan-out's
  /// wall time.
  struct WorkerViewTag {};
  Session(WorkerViewTag, const Session& parent) : epoch_(parent.epoch_) {}

  [[nodiscard]] PhaseTimers& timers() { return timers_; }
  [[nodiscard]] const PhaseTimers& timers() const { return timers_; }

  /// Microseconds since the session was created (steady clock).
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  PhaseTimers timers_;
};

/// The session bound to the current thread, or nullptr (the default).
[[nodiscard]] Session* current();

/// RAII thread-local binding; restores the previous binding on scope exit
/// so sessions can nest (e.g. a test observing a helper that observes).
class Bind {
 public:
  explicit Bind(Session* s);
  ~Bind();
  Bind(const Bind&) = delete;
  Bind& operator=(const Bind&) = delete;

 private:
  Session* prev_;
};

}  // namespace gcr::obs
