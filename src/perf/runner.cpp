#include "perf/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>

#include "obs/timer.h"
#include "perf/memhook.h"

namespace gcr::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

RunnerOptions RunnerOptions::quick_tier() {
  RunnerOptions o;
  o.quick = true;
  o.min_reps = 5;
  o.max_reps = 15;
  o.max_seconds_per_bench = 0.4;
  o.rel_tol = 0.05;
  return o;
}

RunnerOptions RunnerOptions::from_env() {
  const char* q = std::getenv("GCR_BENCH_QUICK");
  if (q && *q && std::string_view(q) != "0") return quick_tier();
  return RunnerOptions{};
}

void Runner::add(std::string name, BenchFactory make) {
  entries_.push_back({std::move(name), std::move(make)});
}

std::vector<std::string> Runner::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::vector<BenchResult> Runner::run(const RunnerOptions& opts,
                                     std::ostream* progress) const {
  std::vector<BenchResult> results;
  for (const auto& entry : entries_) {
    if (!opts.filter.empty() &&
        entry.name.find(opts.filter) == std::string::npos)
      continue;

    BenchResult r;
    r.name = entry.name;
    r.warmup_reps = opts.warmup_reps;

    // The benchmark phase: setup, warmup and reps all run under a phase
    // named after the benchmark so the bound session's tree nests the
    // library's internal phases beneath it.
    obs::ScopedTimer bench_phase(entry.name.c_str());

    BenchFn fn = entry.make();

    // Calibrate the batch size: one rep must be long enough that the
    // steady-clock quantization is noise, not signal. The calibration
    // call doubles as the first warmup rep.
    constexpr std::int64_t kMaxBatch = 1'000'000;
    const Clock::time_point c0 = Clock::now();
    fn();
    const double first = seconds_since(c0);
    if (first < opts.min_rep_seconds) {
      const double per_call = std::max(first, 1e-9);
      r.batch = std::min<std::int64_t>(
          kMaxBatch,
          static_cast<std::int64_t>(opts.min_rep_seconds / per_call) + 1);
    }

    for (int i = 1; i < opts.warmup_reps; ++i) fn();

    const bool mem = memhook::enabled();
    memhook::Stats m0;
    if (mem) {
      memhook::reset_peak();
      m0 = memhook::stats();
    }

    std::vector<double> samples_ms;
    const Clock::time_point bench0 = Clock::now();
    while (true) {
      const Clock::time_point t0 = Clock::now();
      for (std::int64_t i = 0; i < r.batch; ++i) fn();
      const double rep_s = seconds_since(t0);
      if (rep_s < opts.min_rep_seconds && r.batch < kMaxBatch) {
        // The calibration call ran slower than the steady state, so this
        // rep is too short to time: double the batch and start the sample
        // over. Every kept rep lasts at least min_rep_seconds.
        r.batch = std::min(kMaxBatch, 2 * r.batch);
        samples_ms.clear();
        if (mem) {
          memhook::reset_peak();
          m0 = memhook::stats();
        }
        continue;
      }
      samples_ms.push_back(rep_s * 1000.0 / static_cast<double>(r.batch));

      const int n = static_cast<int>(samples_ms.size());
      if (n < opts.min_reps) continue;
      if (stabilized(samples_ms, opts.rel_tol)) {
        r.stable = true;
        break;
      }
      if (n >= opts.max_reps) break;
      if (seconds_since(bench0) > opts.max_seconds_per_bench) break;
    }

    r.time_ms = summarize(samples_ms);
    if (mem) {
      const memhook::Stats m1 = memhook::stats();
      const double reps =
          static_cast<double>(samples_ms.size()) *
          static_cast<double>(r.batch);
      r.memory.measured = true;
      r.memory.allocs_per_rep =
          static_cast<double>(m1.allocs - m0.allocs) / reps;
      r.memory.bytes_per_rep =
          static_cast<double>(m1.bytes_allocated - m0.bytes_allocated) / reps;
      r.memory.peak_live_bytes = m1.peak_live_bytes;
    }

    if (progress) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "  %-44s %10.4f ms  (min %.4f, p90 %.4f, mad %.4f, "
                    "reps %d%s)\n",
                    r.name.c_str(), r.time_ms.median, r.time_ms.min,
                    r.time_ms.p90, r.time_ms.mad, r.time_ms.reps,
                    r.stable ? "" : ", unstable");
      *progress << line << std::flush;
    }
    results.push_back(std::move(r));
  }
  return results;
}

namespace {

/// "group/query/n=128" -> {"group/query", 128}; nullopt when the last
/// component is not `n=<number>`.
std::optional<std::pair<std::string, double>> split_family(
    const std::string& name) {
  const std::size_t slash = name.rfind('/');
  if (slash == std::string::npos) return std::nullopt;
  const std::string_view tail = std::string_view(name).substr(slash + 1);
  if (tail.size() < 3 || tail.substr(0, 2) != "n=") return std::nullopt;
  char* end = nullptr;
  const double n = std::strtod(tail.data() + 2, &end);
  if (end != tail.data() + tail.size() || !(n > 0.0)) return std::nullopt;
  return std::make_pair(name.substr(0, slash), n);
}

std::string human_bytes(double b) {
  char buf[32];
  if (b >= 10.0 * 1024 * 1024)
    std::snprintf(buf, sizeof buf, "%.1f MiB", b / (1024.0 * 1024.0));
  else if (b >= 10.0 * 1024)
    std::snprintf(buf, sizeof buf, "%.1f KiB", b / 1024.0);
  else
    std::snprintf(buf, sizeof buf, "%.0f B", b);
  return buf;
}

}  // namespace

void print_results(std::ostream& os, const std::vector<BenchResult>& results) {
  char line[320];
  os << "benchmark                                     median ms     min ms"
        "     p90 ms     mad ms  reps  memory/rep\n";
  for (const auto& r : results) {
    std::string mem = "-";
    if (r.memory.measured) {
      mem = human_bytes(r.memory.bytes_per_rep) + " / " +
            std::to_string(static_cast<long long>(
                std::llround(r.memory.allocs_per_rep))) +
            " allocs";
    }
    std::snprintf(line, sizeof line,
                  "%-44s %10.4f %10.4f %10.4f %10.4f %5d  %s%s\n",
                  r.name.c_str(), r.time_ms.median, r.time_ms.min,
                  r.time_ms.p90, r.time_ms.mad, r.time_ms.reps, mem.c_str(),
                  r.stable ? "" : "  [unstable]");
    os << line;
  }

  // Complexity fits over n=<size> families.
  std::map<std::string, std::vector<std::pair<double, double>>> families;
  for (const auto& r : results) {
    if (const auto fam = split_family(r.name))
      families[fam->first].emplace_back(fam->second, r.time_ms.median);
  }
  bool header = false;
  for (const auto& [prefix, points] : families) {
    if (points.size() < 3) continue;
    if (!header) {
      os << "-- complexity fits (median ~ n^slope) --\n";
      header = true;
    }
    std::snprintf(line, sizeof line, "  %-42s slope %.2f over %zu sizes\n",
                  prefix.c_str(), loglog_slope(points), points.size());
    os << line;
  }
}

}  // namespace gcr::perf
