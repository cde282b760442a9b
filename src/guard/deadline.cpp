#include "guard/deadline.h"

#include "prof/recorder.h"

namespace gcr::guard {

namespace {
thread_local const Deadline* t_deadline = nullptr;
}  // namespace

DeadlineScope::DeadlineScope(const Deadline& d) : prev_(t_deadline) {
  t_deadline = &d;
}

DeadlineScope::~DeadlineScope() { t_deadline = prev_; }

const Deadline* current_deadline() { return t_deadline; }

void poll_deadline(const char* phase) {
  if (t_deadline == nullptr || t_deadline->unlimited()) return;
  // Only *limited* polls are flight-recorded: they are the deterministic
  // abort points a post-mortem needs, and unlimited runs stay quiet.
  if (t_deadline->expired()) {
    prof::record(prof::Ev::DeadlineExpired, phase);
    throw CancelledError(phase);
  }
  prof::record(prof::Ev::DeadlinePoll, phase);
}

}  // namespace gcr::guard
