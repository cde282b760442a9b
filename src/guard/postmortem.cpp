#include "guard/postmortem.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <exception>

#include "prof/recorder.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GCR_UNDER_SANITIZER 1
#endif
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GCR_UNDER_SANITIZER 1
#endif

namespace gcr::guard {

namespace {

char g_crash_path[256] = {0};

/// Async-signal-safe: open(2)/write(2) only, no allocation, no locks.
bool dump_to(const char* path, bool crash) {
  const int fd = open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = prof::write_flight_record_fd(fd, crash);
  return close(fd) == 0 && ok;
}

#if !defined(GCR_UNDER_SANITIZER)

extern "C" void crash_signal_handler(int sig) {
  (void)dump_to(g_crash_path, true);
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (core dumps, CI failure detection).
  signal(sig, SIG_DFL);
  raise(sig);
}

void terminate_dump() {
  (void)dump_to(g_crash_path, true);
  std::abort();
}

#endif  // !GCR_UNDER_SANITIZER

}  // namespace

bool postmortem_dump(const std::string& path) {
  return dump_to(path.c_str(), false);
}

void install_postmortem(const std::string& path) {
  std::strncpy(g_crash_path, path.c_str(), sizeof g_crash_path - 1);
  g_crash_path[sizeof g_crash_path - 1] = '\0';
#if !defined(GCR_UNDER_SANITIZER)
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
    signal(sig, &crash_signal_handler);
  std::set_terminate(&terminate_dump);
#endif
}

}  // namespace gcr::guard
