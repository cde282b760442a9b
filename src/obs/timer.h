#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file timer.h
/// RAII scoped phase timers forming a phase tree.
///
/// Each routing run produces a tree like
///
///   analyze            12.3 ms
///   route              81.0 ms
///   ├─ topology        44.1 ms
///   ├─ embed           21.7 ms  (x12 under auto-tune)
///   ├─ reduce           2.2 ms
///   ├─ controller       0.0 ms
///   └─ eval             9.8 ms
///
/// Re-entering a phase name under the same parent aggregates into one node
/// (calls += 1, total_ms += elapsed), so auto-tune's repeated
/// embed/reduce/eval iterations stay readable. Durations come from the
/// monotonic steady clock.
///
/// `ScopedTimer` is the only thing instrumented code touches; it is a no-op
/// (one thread-local load) unless a `Session` is bound on this thread, and
/// it additionally records the phase's enter and exit with the thread's
/// event recorder (prof/recorder.h), which the trace, the sampler, the log
/// and the flight record read. The phase stack is per-session and
/// therefore per-thread -- a session must not be shared across threads.

namespace gcr::obs {

class Session;

/// Cumulative allocation counters at one instant, as reported by the
/// process's allocation hook (see `set_alloc_sampler`).
struct AllocSample {
  std::uint64_t allocs{0};
  std::uint64_t bytes{0};
};

/// Sampler the phase timers call to attribute heap traffic to phases.
/// Installed by `perf::memhook` when the (opt-in) global operator
/// new/delete hook is enabled; nullptr (the default) keeps `ScopedTimer`
/// free of any allocation bookkeeping. Install/remove only from quiescent
/// points, like `set_metrics_enabled`.
using AllocSamplerFn = AllocSample (*)();
void set_alloc_sampler(AllocSamplerFn fn);
[[nodiscard]] AllocSamplerFn alloc_sampler();

/// Cumulative hardware-counter readings for the *calling thread* at one
/// instant. The four slots' meaning is defined by whoever installs the
/// sampler (gcr::prof: cycles/instructions/cache_misses/branch_misses via
/// perf_event_open, or rusage-based deltas when the PMU is unavailable);
/// obs only deltas them across each phase and reports them under the
/// registered slot names.
struct HwSample {
  std::array<std::uint64_t, 4> v{};
};
inline constexpr int kHwSlots = 4;

/// Installed by prof::enable_hw_counters; nullptr (the default) keeps
/// ScopedTimer free of any counter reads. `names` must be static-duration
/// strings; they stick after the sampler is removed so late report writers
/// can still label already-collected per-phase values. Install/remove only
/// from quiescent points.
using HwSamplerFn = HwSample (*)();
void set_hw_sampler(HwSamplerFn fn,
                    const std::array<const char*, kHwSlots>& names);
[[nodiscard]] HwSamplerFn hw_sampler();
[[nodiscard]] const std::array<const char*, kHwSlots>& hw_counter_names();

struct PhaseStats {
  std::string name;
  int calls{0};
  double total_ms{0.0};
  /// Heap traffic attributed to this phase (excluding children's own
  /// double count -- deltas are credited to the innermost open phase's
  /// subtree root, i.e. each node's numbers *include* its children, like
  /// total_ms). Zero unless an alloc sampler was installed.
  std::uint64_t alloc_count{0};
  std::uint64_t alloc_bytes{0};
  /// Hardware-counter deltas for this phase's subtree (inclusive of
  /// children, like total_ms). Populated only while an hw sampler is
  /// installed; see `hw_counter_names()` for the slot labels.
  bool has_hw{false};
  std::array<std::uint64_t, kHwSlots> hw{};
  std::vector<std::unique_ptr<PhaseStats>> children;

  /// Find-or-create the child with this name (aggregation point).
  PhaseStats& child(std::string_view child_name);
};

/// The per-session collector: a synthetic unnamed root plus the stack of
/// currently open phases.
class PhaseTimers {
 public:
  PhaseTimers() { stack_.push_back(&root_); }

  [[nodiscard]] const PhaseStats& root() const { return root_; }

  /// Open `name` under the innermost open phase; returns the node.
  PhaseStats& push(std::string_view name);
  /// Close the innermost phase, crediting `elapsed_ms` (and, when an alloc
  /// sampler is installed, the allocation deltas) to it.
  void pop(double elapsed_ms, std::uint64_t alloc_count = 0,
           std::uint64_t alloc_bytes = 0, const HwSample* hw_delta = nullptr);
  /// Stack depth excluding the synthetic root (0 = nothing open).
  [[nodiscard]] int depth() const {
    return static_cast<int>(stack_.size()) - 1;
  }

 private:
  PhaseStats root_;
  std::vector<PhaseStats*> stack_;
};

/// Times one phase for the session bound to the current thread (no-op when
/// none). Stack-allocated only; scopes must nest properly.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Session* session_{nullptr};
  const char* name_;
  double t0_us_{0.0};
  AllocSample a0_;  ///< sampler snapshot at phase entry (if installed)
  HwSample h0_;     ///< hw-counter snapshot at phase entry (if installed)
  bool hw_{false};
};

}  // namespace gcr::obs
