#include "prof/hwcounters.h"

#include <cstdlib>
#include <cstring>

#include "obs/timer.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#include <sys/resource.h>

namespace gcr::prof {

namespace {

constexpr std::array<const char*, 4> kPerfNames = {
    "cycles", "instructions", "cache_misses", "branch_misses"};
constexpr std::array<const char*, 4> kRusageNames = {
    "cpu_user_ns", "cpu_sys_ns", "minor_faults", "ctx_switches"};

HwInfo g_info;

#if defined(__linux__)

bool fallback_forced() {
  const char* env = std::getenv("GCR_PROF_NO_HW");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

/// One counter group per sampling thread, opened lazily the first time the
/// sampler runs there (perf fds are per-thread; a single probe cannot
/// serve other threads). Closed by the thread_local destructor.
struct PerfGroup {
  int fds[4] = {-1, -1, -1, -1};
  bool tried = false;
  bool ok = false;

  ~PerfGroup() { close_all(); }

  void close_all() {
    for (int& fd : fds) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
    ok = false;
  }

  void reset() {
    close_all();
    tried = false;
  }

  void open_group() {
    tried = true;
    static constexpr std::uint64_t kConfigs[4] = {
        PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
    for (int i = 0; i < 4; ++i) {
      perf_event_attr attr{};
      attr.size = sizeof attr;
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = kConfigs[i];
      attr.read_format = PERF_FORMAT_GROUP;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      const long fd =
          syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                  /*group_fd=*/i == 0 ? -1 : fds[0], /*flags=*/0UL);
      if (fd < 0) {
        close_all();
        return;
      }
      fds[i] = static_cast<int>(fd);
    }
    ok = true;
  }
};

thread_local PerfGroup t_group;

obs::HwSample perf_sample() {
  PerfGroup& g = t_group;
  if (!g.tried) g.open_group();
  obs::HwSample s;
  if (!g.ok) return s;  // zeros: this thread's PMU slice is unavailable
  struct {
    std::uint64_t nr;
    std::uint64_t values[8];
  } buf{};
  const ssize_t n = read(g.fds[0], &buf, sizeof buf);
  if (n > 0 && buf.nr >= 4)
    for (int i = 0; i < 4; ++i)
      s.v[static_cast<std::size_t>(i)] = buf.values[i];
  return s;
}

#endif  // __linux__

std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
}

obs::HwSample rusage_sample() {
  obs::HwSample s;
  rusage ru{};
#if defined(RUSAGE_THREAD)
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return s;
#else
  if (getrusage(RUSAGE_SELF, &ru) != 0) return s;
#endif
  s.v[0] = timeval_ns(ru.ru_utime);
  s.v[1] = timeval_ns(ru.ru_stime);
  s.v[2] = static_cast<std::uint64_t>(ru.ru_minflt);
  s.v[3] = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return s;
}

}  // namespace

HwInfo enable_hw_counters() {
  HwInfo info;
#if defined(__linux__)
  if (!fallback_forced()) {
    t_group.reset();
    t_group.open_group();
    if (t_group.ok) {
      info.perf_event = true;
      info.source = "perf_event";
      info.names = kPerfNames;
      obs::set_hw_sampler(&perf_sample, info.names);
    }
  }
#endif
  if (!info.perf_event) {
    info.source = "rusage";
    info.names = kRusageNames;
    obs::set_hw_sampler(&rusage_sample, info.names);
  }
  g_info = info;
  return info;
}

void disable_hw_counters() {
  obs::set_hw_sampler(nullptr, g_info.names);
#if defined(__linux__)
  t_group.reset();
#endif
}

HwInfo hw_info() { return g_info; }

}  // namespace gcr::prof
