#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "log/logger.h"
#include "log/schema.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "perf/memhook.h"
#include "prof/recorder.h"
#include "prof/ticker.h"

/// Unit tests of gcr::log: runtime level filtering, write-through
/// delivery (a record is in the sink when its statement returns, and a
/// concurrent burst lands every line in per-thread order), token-bucket
/// rate limiting with suppression accounting under concurrent writers,
/// shutdown/re-init while lanes keep emitting, JSONL schema round-trips
/// through the shared validator (the same code `gcr_events --validate`
/// runs), phase/thread context propagation, and the disabled logger's
/// zero-allocation fast path.

namespace gcr {
namespace {

/// Run lane(l) for l in [0, lanes) on one std::thread each and join them.
template <typename Lane>
void run_lanes(int lanes, const Lane& lane) {
  std::vector<std::thread> threads;
  for (int l = 0; l < lanes; ++l) threads.emplace_back([&lane, l] { lane(l); });
  for (std::thread& t : threads) t.join();
}

/// Init the singleton with a MemorySink and hand back a view that shares
/// the sink's buffer (MemorySink buffers behind a shared_ptr, so a copy
/// taken after first use observes everything the logger writes).
log::MemorySink init_with_memory_sink(log::Options opts) {
  auto sink = std::make_unique<log::MemorySink>();
  sink->clear();  // force the shared buffer into existence before copying
  log::MemorySink view = *sink;
  opts.extra_sink = std::move(sink);
  opts.stderr_level = log::Level::Off;  // keep test output quiet
  EXPECT_TRUE(log::Logger::instance().init(std::move(opts)));
  return view;
}

/// Every test starts and ends with the logger torn down; re-init after
/// shutdown is part of the Logger contract this relies on.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { log::Logger::instance().shutdown(); }
  void TearDown() override { log::Logger::instance().shutdown(); }
};

std::vector<log::Record> events_named(const log::MemorySink& sink,
                                      const std::string& name) {
  std::vector<log::Record> out;
  for (const log::Record& r : sink.records())
    if (r.kind == log::Record::Kind::Event && r.name == name)
      out.push_back(r);
  return out;
}

TEST_F(LogTest, RuntimeLevelFiltersBelowFloor) {
  log::Options opts;
  opts.level = log::Level::Info;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  GCR_LOG_DEBUG("lvl.debug").kv("k", 1);
  GCR_LOG_INFO("lvl.info").kv("k", 2);
  GCR_LOG_WARN("lvl.warn").kv("k", 3);
  log::Logger::instance().flush();

  EXPECT_TRUE(events_named(sink, "lvl.debug").empty());
  EXPECT_EQ(events_named(sink, "lvl.info").size(), 1u);
  EXPECT_EQ(events_named(sink, "lvl.warn").size(), 1u);

  // Raising the floor at runtime takes effect on the very next emission.
  log::Logger::instance().set_level(log::Level::Error);
  EXPECT_FALSE(log::enabled(log::Level::Warn));
  GCR_LOG_WARN("lvl.warn2").msg("filtered");
  GCR_LOG_ERROR("lvl.error").msg("kept");
  log::Logger::instance().flush();

  EXPECT_TRUE(events_named(sink, "lvl.warn2").empty());
  EXPECT_EQ(events_named(sink, "lvl.error").size(), 1u);
}

TEST_F(LogTest, RecordIsInTheSinkWhenItsStatementReturns) {
  const log::MemorySink sink = init_with_memory_sink(log::Options{});
  GCR_LOG_INFO("wt.first").kv("k", 1);
  ASSERT_EQ(sink.records().size(), 1u);  // no flush(): written in place
  EXPECT_EQ(sink.records()[0].name, "wt.first");
  GCR_LOG_WARN("wt.second");
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_NE(sink.lines()[1].find("\"event\":\"wt.second\""),
            std::string::npos);
}

TEST_F(LogTest, ConcurrentBurstLandsEveryLineInPerThreadOrder) {
  log::Options opts;
  opts.rate_per_sec = 0.0;  // no rate limiting: every emission is written
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  constexpr std::int64_t kTotal = 20000;
  run_lanes(4, [&](int lane) {
    for (std::int64_t i = lane; i < kTotal; i += 4)
      GCR_LOG_INFO("burst.line").kv("i", i);
  });

  // Each lane walks its share upward, so its own emissions carry strictly
  // increasing i.
  const std::vector<log::Record> recs = events_named(sink, "burst.line");
  ASSERT_EQ(recs.size(), static_cast<std::size_t>(kTotal));
  std::vector<bool> seen(kTotal, false);
  std::map<std::uint32_t, std::int64_t> last_by_tid;
  for (const log::Record& r : recs) {
    const std::int64_t i = std::stoll(r.data.substr(r.data.find(':') + 1));
    ASSERT_GE(i, 0);
    ASSERT_LT(i, kTotal);
    EXPECT_FALSE(seen[i]) << "i=" << i << " written twice";
    seen[i] = true;
    const auto [it, first] = last_by_tid.emplace(r.tid, i);
    if (!first) {
      EXPECT_GT(i, it->second) << "tid " << r.tid << " out of order";
      it->second = i;
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), kTotal);
}

TEST_F(LogTest, ReinitWhileLanesEmitKeepsSessionsApart) {
  // Four lanes keep emitting while the main thread shuts the logger down
  // and starts it again on a fresh sink. Every lane reads `gen` after its
  // record was admitted, and gen turns 2 only after shutdown() returned,
  // so gen 1 marks a first-session record: none may reach the new sink.
  // A slow trailing kv holds each admitted record open across the switch.
  log::Options first;
  first.rate_per_sec = 0.0;
  const log::MemorySink sink1 = init_with_memory_sink(std::move(first));

  std::atomic<bool> stop{false};
  std::atomic<int> gen{1};
  std::atomic<std::uint64_t> emitted{0};
  std::thread driver([&] {
    run_lanes(4, [&](int) {
      const auto slow = [] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return true;
      };
      while (!stop.load()) {
        GCR_LOG_INFO("race.lane").kv("gen", gen.load()).kv("slow", slow());
        emitted.fetch_add(1);
      }
    });
  });
  const auto wait_for = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  wait_for([&] { return emitted.load() >= 100; });
  log::Logger::instance().shutdown();
  gen.store(2);

  log::Options second;
  second.rate_per_sec = 0.0;
  const log::MemorySink sink2 = init_with_memory_sink(std::move(second));
  wait_for([&] { return sink2.records().size() >= 100; });
  stop.store(true);
  driver.join();
  log::Logger::instance().shutdown();

  const std::vector<log::Record> before = events_named(sink1, "race.lane");
  const std::vector<log::Record> after = events_named(sink2, "race.lane");
  EXPECT_FALSE(before.empty());
  EXPECT_FALSE(after.empty());
  for (const log::Record& r : before)
    ASSERT_EQ(r.data, "\"gen\":1,\"slow\":true");
  for (const log::Record& r : after)
    ASSERT_EQ(r.data, "\"gen\":2,\"slow\":true");
}

TEST_F(LogTest, RateLimiterAccountsEverySuppressedEmission) {
  log::Options opts;
  opts.level = log::Level::Info;
  // One token a second with a burst of 8: a 4-lane burst of 400 emissions
  // must admit only a handful and suppress the rest -- with every single
  // emission landing in exactly one of the two tallies.
  opts.rate_per_sec = 1.0;
  opts.rate_burst = 8.0;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  constexpr std::int64_t kTotal = 400;
  run_lanes(4, [&](int lane) {
    for (std::int64_t i = lane; i < kTotal; i += 4)
      GCR_LOG_INFO("rl.burst").kv("i", i);
  });
  log::Logger::instance().flush();

  const log::RateStats stats = log::Logger::instance().rate_stats("rl.burst");
  EXPECT_EQ(stats.admitted + stats.suppressed,
            static_cast<std::uint64_t>(kTotal));
  EXPECT_GT(stats.suppressed, 0u);
  EXPECT_GE(stats.admitted, 8u);  // the full burst allowance gets through

  // Admitted records reach the sink 1:1, and the suppressed counts that
  // ride on them never exceed the limiter's own tally (the remainder is
  // reported by the shutdown summary).
  const std::vector<log::Record> recs = events_named(sink, "rl.burst");
  EXPECT_EQ(recs.size(), stats.admitted);
  std::uint64_t carried = 0;
  for (const log::Record& r : recs) carried += r.suppressed;
  EXPECT_LE(carried, stats.suppressed);
}

TEST_F(LogTest, EmittedLinesSatisfyTheSharedSchemaValidator) {
  log::Options opts;
  opts.level = log::Level::Debug;
  opts.run_id = "log-test-run";
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  GCR_LOG_INFO("schema.types")
      .kv("s", "text with \"quotes\" and \\ backslash")
      .kv("d", 2.5)
      .kv("i", static_cast<std::int64_t>(-7))
      .kv("u", static_cast<std::uint64_t>(1) << 40)
      .kv("b", true)
      .msg("payload of every kv type");
  GCR_LOG_WARN("schema.warn");

  prof::Ticker telemetry;
  telemetry.start({.sample_us = 0, .snapshot_ms = 5});
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const prof::Ticker::Profile run = telemetry.stop();
  const std::uint64_t snapshots = run.snapshots;
  EXPECT_GE(snapshots, 1u);
  EXPECT_EQ(run.ticks, 0u);  // sampling period 0: snapshots only
  log::Logger::instance().flush();

  std::uint64_t events = 0;
  std::uint64_t snaps = 0;
  for (const std::string& line : sink.lines()) {
    const std::optional<obs::json::Value> doc = obs::json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const std::vector<std::string> problems = log::validate_line(*doc);
    EXPECT_TRUE(problems.empty())
        << line << "\nfirst problem: " << problems.front();
    const std::optional<log::LineInfo> info = log::parse_line(*doc);
    ASSERT_TRUE(info.has_value()) << line;
    if (info->kind == log::LineKind::Event)
      ++events;
    else
      ++snaps;
  }
  EXPECT_GE(events, 2u);
  EXPECT_EQ(snaps, snapshots);
}

TEST_F(LogTest, EventsCarryPhasePathAndThreadOrdinal) {
  log::Options opts;
  opts.level = log::Level::Info;
  opts.rate_per_sec = 0.0;  // all 64 lane events must land in the sink
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));

  {
    obs::Session session;
    obs::Bind bind(&session);
    obs::ScopedTimer outer("a");
    {
      obs::ScopedTimer inner("b");
      GCR_LOG_INFO("ctx.phase").kv("depth", 2);
    }
    GCR_LOG_INFO("ctx.outer").kv("depth", 1);
  }
  GCR_LOG_INFO("ctx.none");

  // Each lane logs its own recorder ordinal; the event's tid must match.
  run_lanes(4, [&](int lane) {
    const auto tid = static_cast<std::int64_t>(prof::thread_ordinal());
    for (int i = 0; i < 16; ++i)
      GCR_LOG_INFO("ctx.lane").kv("lane", lane).kv("tid", tid);
  });
  log::Logger::instance().flush();

  const std::vector<log::Record> nested = events_named(sink, "ctx.phase");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].phase, "a/b");
  const std::vector<log::Record> outer = events_named(sink, "ctx.outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0].phase, "a");
  const std::vector<log::Record> bare = events_named(sink, "ctx.none");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].phase, "");
  EXPECT_EQ(bare[0].tid, prof::thread_ordinal());

  const std::vector<log::Record> lanes = events_named(sink, "ctx.lane");
  EXPECT_EQ(lanes.size(), 64u);
  std::map<std::uint32_t, int> per_tid;
  for (const log::Record& r : lanes) {
    EXPECT_EQ(r.data.substr(r.data.find("\"tid\":") + 6),
              std::to_string(r.tid));
    EXPECT_NE(r.tid, prof::thread_ordinal());
    ++per_tid[r.tid];
  }
  EXPECT_EQ(per_tid.size(), 4u);
}

TEST_F(LogTest, TickerStartStopKeepsPhasePathsUnderARunningLogger) {
  // The logger and the ticker's sampling both read the recorder's phase
  // stacks; neither may switch them off for the other. Stopping a ticker
  // while the logger runs must leave later events with their phase path.
  log::Options opts;
  opts.level = log::Level::Info;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));
  obs::Session session;
  obs::Bind bind(&session);
  {
    obs::ScopedTimer phase("before");
    GCR_LOG_INFO("sampler.before").kv("k", 1);
  }
  prof::Ticker ticker;
  ticker.start({.sample_us = 100, .snapshot_ms = 1});
  (void)ticker.stop();
  {
    obs::ScopedTimer phase("after");
    obs::ScopedTimer inner("inner");
    GCR_LOG_INFO("sampler.after").kv("k", 2);
  }
  log::Logger::instance().flush();

  const std::vector<log::Record> before = events_named(sink, "sampler.before");
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].phase, "before");
  const std::vector<log::Record> after = events_named(sink, "sampler.after");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].phase, "after/inner");
}

/// Threads of this process, from /proc/self/task; -1 when unavailable.
int task_count() {
  std::error_code ec;
  int n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++n;
  return ec ? -1 : n;
}

TEST_F(LogTest, TickerSamplesAndSnapshotsOnOneThread) {
  log::Options opts;
  opts.level = log::Level::Info;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));
  const int before = task_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";

  obs::Session session;
  obs::Bind bind(&session);
  const obs::ScopedTimer phase("ticker_both");
  prof::Ticker ticker;
  ticker.start({.sample_us = 200, .snapshot_ms = 5});
  ASSERT_TRUE(ticker.running());
  EXPECT_EQ(task_count(), before + 1);  // one thread does both jobs

  // Wait (bounded) for a periodic snapshot, so the tail one at stop() is
  // not what makes the count positive.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t periodic = 0;
  while (periodic == 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    periodic = sink.lines().size();
  }
  EXPECT_EQ(task_count(), before + 1);
  const prof::Ticker::Profile p = ticker.stop();
  log::Logger::instance().flush();

  EXPECT_GE(periodic, 1u);
  EXPECT_GT(p.ticks, 0u);
  EXPECT_GE(p.snapshots, 2u);  // at least one periodic plus the tail
  std::uint64_t snaps = 0;
  for (const log::Record& r : sink.records())
    if (r.kind == log::Record::Kind::Snapshot) ++snaps;
  EXPECT_EQ(snaps, p.snapshots);
  bool sampled = false;
  for (const prof::Ticker::Entry& e : p.entries)
    sampled = sampled || (e.phase == "ticker_both" && e.self > 0);
  EXPECT_TRUE(sampled);
}

TEST_F(LogTest, StopWakesALongSnapshotPeriodAndKeepsTheTail) {
  log::Options opts;
  opts.level = log::Level::Info;
  const log::MemorySink sink = init_with_memory_sink(std::move(opts));
  prof::Ticker ticker;
  ticker.start({.sample_us = 0, .snapshot_ms = 2000});
  // Let the tick thread reach its wait, so stop() has to cut it short.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  const prof::Ticker::Profile p = ticker.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(200));
  log::Logger::instance().flush();
  EXPECT_EQ(p.snapshots, 1u);  // the tail snapshot, no periodic one
  std::uint64_t snaps = 0;
  for (const log::Record& r : sink.records())
    if (r.kind == log::Record::Kind::Snapshot) ++snaps;
  EXPECT_EQ(snaps, 1u);
}

TEST_F(LogTest, DisabledLoggerEmitsNothingAndNeverAllocates) {
  ASSERT_FALSE(log::Logger::instance().running());
  EXPECT_FALSE(log::enabled(log::Level::Error));

  if (!perf::memhook::available()) GTEST_SKIP() << "no malloc_usable_size";
  perf::memhook::enable();
  perf::memhook::reset();
  for (int i = 0; i < 1000; ++i) {
    // Arguments must not evaluate: the std::string here would allocate.
    GCR_LOG_ERROR("off.event").kv("s", std::string(64, 'x')).kv("i", i);
  }
  const perf::memhook::Stats stats = perf::memhook::stats();
  perf::memhook::disable();
  EXPECT_EQ(stats.allocs, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
}

}  // namespace
}  // namespace gcr
