#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "perf/stats.h"

/// \file runner.h
/// The statistical benchmark runner: named benchmarks registered as
/// factories, executed with warmup plus adaptive repetitions until the
/// median stabilizes (see stats.h), reported as median/min/p90/MAD with a
/// per-benchmark memory section.
///
/// Registration is factory-based so expensive setup (building an r5-scale
/// design, constructing the activity tables) runs once, outside the timed
/// region:
///
///   runner.add("route/r1/buffered", [] {
///     auto router = std::make_shared<core::GatedClockRouter>(make_design());
///     return [=] {
///       auto r = router->route({});
///       perf::do_not_optimize(r.swcap.total_swcap());
///     };
///   });
///
/// Name convention: `group/what[/variant][/n=<size>]`, '/'-separated.
/// `gcr_bench` writes one `BENCH_<group>.json` sidecar per group, and the
/// text reporter fits a log-log complexity slope over families that share
/// a prefix and differ only in a numeric `n=<size>` component.
///
/// When an `obs::Session` is bound on the thread, every benchmark's
/// repetitions run under a phase named after the benchmark, so the phase
/// tree in the sidecar shows the library-internal phase breakdown beneath
/// each benchmark (and, with the memhook enabled, bytes next to
/// milliseconds).

namespace gcr::perf {

/// Per-benchmark heap traffic, measured over the timed repetitions only
/// (warmup excluded). `measured` is false when the allocation hook is
/// unavailable or disabled -- consumers must not read zeros as "does not
/// allocate".
struct MemoryStats {
  bool measured{false};
  double allocs_per_rep{0.0};
  double bytes_per_rep{0.0};
  std::uint64_t peak_live_bytes{0};  ///< high-water mark during the reps
};

struct BenchResult {
  std::string name;
  int warmup_reps{0};
  /// Inner iterations per repetition (micro benchmarks batch enough calls
  /// per rep that one rep is comfortably above timer resolution; times in
  /// `time_ms` are per inner iteration).
  std::int64_t batch{1};
  Summary time_ms;
  bool stable{false};  ///< stabilization cutoff reached (vs rep/time cap)
  MemoryStats memory;
};

struct RunnerOptions {
  int warmup_reps{1};
  int min_reps{5};
  int max_reps{40};
  double max_seconds_per_bench{1.5};
  double rel_tol{0.02};          ///< split-half agreement tolerance
  double min_rep_seconds{2e-4};  ///< batch up reps shorter than this
  bool quick{false};
  /// Substring match on the name, or only the benchmark of exactly that
  /// name when one exists; empty = run all.
  std::string filter;

  /// The quick tier: fewer reps, tighter time cap. Used by CI's perf-smoke
  /// leg and `reproduce_all.sh`.
  [[nodiscard]] static RunnerOptions quick_tier();
  /// quick_tier() when GCR_BENCH_QUICK is set to a non-empty value other
  /// than "0", defaults otherwise.
  [[nodiscard]] static RunnerOptions from_env();
};

using BenchFn = std::function<void()>;
using BenchFactory = std::function<BenchFn()>;

class Runner {
 public:
  void add(std::string name, BenchFactory make);

  [[nodiscard]] std::vector<std::string> names() const;

  /// Run every registered benchmark whose name matches `opts.filter`, in
  /// registration order. Progress lines (one per benchmark) go to
  /// `progress` when non-null.
  [[nodiscard]] std::vector<BenchResult> run(const RunnerOptions& opts,
                                             std::ostream* progress) const;

 private:
  struct Entry {
    std::string name;
    BenchFactory make;
  };
  std::vector<Entry> entries_;
};

/// Keep `v` (and everything feeding it) out of the optimizer's reach. The
/// address escapes through the asm, so this works for class types too.
template <typename T>
inline void do_not_optimize(T&& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Text report: one row per benchmark (median/min/p90/MAD, reps, memory
/// when measured), then a complexity-fit line per `n=<size>` family with
/// at least 3 members.
void print_results(std::ostream& os, const std::vector<BenchResult>& results);

}  // namespace gcr::perf
