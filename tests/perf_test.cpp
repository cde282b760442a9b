/// \file perf_test.cpp
/// Unit tests for the gcr::perf bench harness: the median/MAD statistics
/// kernel, the adaptive-repetition runner, the opt-in allocation hook
/// (including its disabled-means-untouched contract) and the
/// `gcr.bench_report` v2 writer/validator round trip.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "perf/diff.h"
#include "perf/memhook.h"
#include "perf/report.h"
#include "perf/runner.h"
#include "perf/stats.h"

namespace gcr {
namespace {

TEST(PerfStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(perf::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perf::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(perf::median({7.5}), 7.5);
  EXPECT_DOUBLE_EQ(perf::median({}), 0.0);
}

TEST(PerfStats, PercentileInterpolatesAndClamps) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(perf::percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(perf::percentile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(perf::percentile(v, 0.5), 30.0);
  // p90 over 5 points: index 0.9 * 4 = 3.6 -> 40 + 0.6 * 10.
  EXPECT_NEAR(perf::percentile(v, 0.9), 46.0, 1e-12);
  EXPECT_DOUBLE_EQ(perf::percentile({}, 0.9), 0.0);
}

TEST(PerfStats, MadIsMedianAbsoluteDeviation) {
  // median = 3, |v - 3| = {2, 1, 0, 1, 2} -> MAD = 1.
  EXPECT_DOUBLE_EQ(perf::mad({1.0, 2.0, 3.0, 4.0, 5.0}), 1.0);
  // An outlier moves the mean but not the MAD much: median = 2,
  // deviations {1, 0, 0, 98} -> MAD = 0.5.
  EXPECT_DOUBLE_EQ(perf::mad({1.0, 2.0, 2.0, 100.0}), 0.5);
  EXPECT_DOUBLE_EQ(perf::mad({}), 0.0);
}

TEST(PerfStats, SummarizeFixedVector) {
  const auto s = perf::summarize({4.0, 2.0, 8.0, 6.0});
  EXPECT_EQ(s.reps, 4);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
}

TEST(PerfStats, StabilizationNeedsSixAgreeingSamples) {
  // Too few samples: never stable, however tight.
  EXPECT_FALSE(perf::stabilized({1.0, 1.0, 1.0, 1.0, 1.0}, 0.05));
  // Six identical samples: the half-medians agree exactly.
  EXPECT_TRUE(perf::stabilized({1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 0.05));
  // Warm-up drift: first half around 2, second half around 1 -- the
  // half-medians disagree by ~100% of the overall median.
  EXPECT_FALSE(
      perf::stabilized({2.0, 2.0, 2.0, 1.0, 1.0, 1.0}, 0.05));
  // Degenerate timer (all zeros) counts as stable rather than looping.
  EXPECT_TRUE(perf::stabilized({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, 0.05));
}

TEST(PerfStats, LogLogSlopeRecoversExponent) {
  std::vector<std::pair<double, double>> quadratic;
  for (double n : {8.0, 16.0, 32.0, 64.0}) quadratic.push_back({n, n * n});
  EXPECT_NEAR(perf::loglog_slope(quadratic), 2.0, 1e-9);

  std::vector<std::pair<double, double>> linear{{10.0, 3.0}, {100.0, 30.0}};
  EXPECT_NEAR(perf::loglog_slope(linear), 1.0, 1e-9);

  EXPECT_DOUBLE_EQ(perf::loglog_slope({{10.0, 3.0}}), 0.0);
}

TEST(PerfMemhook, DisabledHookLeavesCountersUntouched) {
  ASSERT_FALSE(perf::memhook::enabled());
  perf::memhook::reset();
  const auto before = perf::memhook::stats();
  {
    auto p = std::make_unique<std::vector<double>>(4096);
    perf::do_not_optimize(p);
  }
  const auto after = perf::memhook::stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.frees, before.frees);
  EXPECT_EQ(after.bytes_allocated, 0u);
  EXPECT_EQ(after.peak_live_bytes, 0u);
}

TEST(PerfMemhook, EnabledHookCountsAllocationsAndPeak) {
  if (!perf::memhook::available()) GTEST_SKIP() << "no malloc_usable_size";
  perf::memhook::enable();
  perf::memhook::reset();
  {
    auto p = std::make_unique<std::vector<double>>(4096);
    perf::do_not_optimize(p);
  }
  const auto s = perf::memhook::stats();
  perf::memhook::disable();
  perf::memhook::reset();

  EXPECT_GE(s.allocs, 1u);
  EXPECT_GE(s.bytes_allocated, 4096u * sizeof(double));
  EXPECT_GE(s.peak_live_bytes, 4096u * sizeof(double));
  // The vector was freed before the snapshot's enclosing scope closed, so
  // the peak exceeds the live footprint.
  EXPECT_GE(s.peak_live_bytes, s.live_bytes);
}

TEST(PerfMemhook, PeakRssIsNonZeroOnLinux) {
  EXPECT_GT(perf::memhook::peak_rss_bytes(), 0u);
}

TEST(PerfRunner, RunsAtLeastMinRepsAndHonorsFilter) {
  perf::Runner r;
  auto counter = std::make_shared<int>(0);
  r.add("unit/counting", [counter] {
    return [counter] { ++*counter; };
  });
  r.add("other/skipped", [] {
    return [] { ADD_FAILURE() << "filtered-out benchmark ran"; };
  });

  perf::RunnerOptions opts = perf::RunnerOptions::quick_tier();
  opts.filter = "unit/";
  // Even a zero time budget must still deliver min_reps samples.
  opts.max_seconds_per_bench = 0.0;
  opts.min_rep_seconds = 0.0;  // no batching: reps map 1:1 to calls
  const auto results = r.run(opts, nullptr);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "unit/counting");
  EXPECT_GE(results[0].time_ms.reps, opts.min_reps);
  EXPECT_EQ(results[0].batch, 1);
  // warmup + timed reps all invoked the closure.
  EXPECT_EQ(*counter, results[0].time_ms.reps + results[0].warmup_reps);
}

TEST(PerfRunner, MicroBenchmarksGetBatched) {
  perf::Runner r;
  r.add("unit/noop", [] { return [] {}; });
  perf::RunnerOptions opts = perf::RunnerOptions::quick_tier();
  opts.min_rep_seconds = 1e-4;
  const auto results = r.run(opts, nullptr);
  ASSERT_EQ(results.size(), 1u);
  // A no-op is far shorter than 0.1 ms, so it is batched, and every rep
  // (batch inner calls; time_ms is per call) lasts at least the minimum.
  EXPECT_GT(results[0].batch, 1);
  EXPECT_GE(results[0].time_ms.min * static_cast<double>(results[0].batch),
            opts.min_rep_seconds * 1e3 * (1.0 - 1e-9));
}

TEST(PerfReport, RoundTripValidatesAndLoads) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  obs::Session session;
  perf::Runner r;
  r.add("unit/work", [] {
    return [] {
      obs::ScopedTimer t("inner");
      volatile double x = 0;
      for (int i = 0; i < 1000; ++i) x = x + i;
    };
  });
  std::vector<perf::BenchResult> results;
  {
    obs::Bind bind(&session);
    results = r.run(perf::RunnerOptions::quick_tier(), nullptr);
  }
  ASSERT_EQ(results.size(), 1u);

  std::ostringstream os;
  perf::write_bench_report(os, "unit", results,
                           perf::RunnerOptions::quick_tier(), &session);
  const std::string doc = os.str();
  ASSERT_TRUE(obs::json::valid(doc)) << doc;

  const auto parsed = obs::json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(perf::validate_bench_report(*parsed).empty())
      << perf::validate_bench_report(*parsed).front();

  std::string error;
  const auto loaded = perf::load_bench_report(doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->bench, "unit");
  EXPECT_EQ(loaded->version, perf::kBenchReportVersion);
  EXPECT_TRUE(loaded->quick);
  ASSERT_EQ(loaded->benchmarks.size(), 1u);
  const auto& sample = loaded->benchmarks.at("unit/work");
  EXPECT_EQ(sample.reps, results[0].time_ms.reps);
  EXPECT_DOUBLE_EQ(sample.median_ms, results[0].time_ms.median);
}

TEST(PerfReport, FingerprintIsPopulated) {
  const auto fp = perf::Fingerprint::current();
  EXPECT_FALSE(fp.git_sha.empty());
  EXPECT_FALSE(fp.compiler.empty());
  EXPECT_FALSE(fp.build_type.empty());
}

}  // namespace
}  // namespace gcr
