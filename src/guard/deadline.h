#pragma once

#include <chrono>

#include "guard/status.h"

/// \file deadline.h
/// Cooperative cancellation for long router runs. A `Deadline` is a value
/// type (unlimited by default); `DeadlineScope` installs one as the calling
/// thread's ambient deadline, and the pipeline polls it at deterministic
/// program points -- phase boundaries in route(), between merge steps in
/// the greedy engine, and before the clustered builder spawns its lanes.
///
/// Polling throws `CancelledError`, which route_guarded() converts into a
/// partial RouteOutcome (exit code 3). Every poll site is a deterministic
/// position in the calling thread's control flow; the lanes the clustered
/// builder spawns carry no deadline, so only the cells the caller builds
/// itself poll. Which site fires depends only on wall-clock time.
/// See docs/robustness.md for the exact semantics.

namespace gcr::guard {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< unlimited

  [[nodiscard]] static Deadline after_ms(double ms) {
    Deadline d;
    d.limited_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  [[nodiscard]] bool unlimited() const { return !limited_; }
  [[nodiscard]] bool expired() const {
    return limited_ && Clock::now() >= at_;
  }

 private:
  bool limited_{false};
  Clock::time_point at_{};
};

/// RAII: installs `d` as this thread's ambient deadline for the scope's
/// lifetime (restores the previous one on destruction, so nested scopes
/// compose). An unlimited deadline still installs -- inner code sees "a
/// deadline exists but never expires".
class DeadlineScope {
 public:
  explicit DeadlineScope(const Deadline& d);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  const Deadline* prev_;
};

/// The calling thread's ambient deadline; nullptr when no scope is active
/// (spawned threads never inherit one).
[[nodiscard]] const Deadline* current_deadline();

/// Throw CancelledError(phase) when the ambient deadline expired. No-op
/// without a scope or with an unlimited deadline.
void poll_deadline(const char* phase);

}  // namespace gcr::guard
