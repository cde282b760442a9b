#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/router.h"
#include "guard/deadline.h"
#include "guard/postmortem.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "prof/hwcounters.h"
#include "prof/recorder.h"
#include "prof/ticker.h"
#include "verify/generator.h"

namespace gcr {
namespace {

// --- flight recorder -------------------------------------------------------

/// The flight record exactly as the crash handler writes it: through the
/// signal-safe fd writer, into a temp file, read back.
std::string flight_record_via_fd(bool crash) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  EXPECT_TRUE(prof::write_flight_record_fd(fileno(f), crash));
  std::rewind(f);
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Record on a dedicated thread so the test owns one whole ring: every
/// other test (and gtest's main thread) records into different rings.
prof::ThreadTail record_on_fresh_thread(std::uint64_t count) {
  std::uint64_t marker = 0;
  std::thread t([&] {
    for (std::uint64_t i = 0; i < count; ++i)
      prof::record(prof::Ev::Mark, "wrap", static_cast<std::int64_t>(i));
    marker = count;
  });
  t.join();
  EXPECT_EQ(marker, count);
  for (const prof::ThreadTail& tail : prof::snapshot_rings())
    if (tail.retired && tail.recorded == count &&
        !tail.events.empty() &&
        std::string(tail.events.front().what) == "wrap")
      return tail;
  ADD_FAILURE() << "ring of the recording thread not found";
  return {};
}

TEST(FlightRec, RingWraparoundKeepsLastN) {
  constexpr std::uint64_t kCount = 1000;
  const prof::ThreadTail tail = record_on_fresh_thread(kCount);
  EXPECT_EQ(tail.recorded, kCount);
  EXPECT_EQ(tail.events.size(), prof::kRingCapacity);
  EXPECT_EQ(tail.dropped, kCount - prof::kRingCapacity);
  // Last-N semantics: the tail is the final kRingCapacity events in order.
  std::uint64_t expect_id = kCount - prof::kRingCapacity + 1;
  for (const prof::Event& e : tail.events) {
    EXPECT_EQ(e.id, expect_id);
    EXPECT_EQ(e.a, static_cast<std::int64_t>(expect_id - 1));
    ++expect_id;
  }
  EXPECT_EQ(expect_id, kCount + 1);
}

TEST(FlightRec, ConcurrentWritersKeepPerThreadConsistency) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  const std::uint64_t before = prof::total_recorded();
  // No writer exits before all have recorded: a thread that starts after
  // another has exited takes over its slot, and its ring with it.
  std::latch recorded(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &recorded] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        prof::record(prof::Ev::Mark, "concurrent", t,
                     static_cast<std::int64_t>(i));
      recorded.arrive_and_wait();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(prof::total_recorded() - before, kThreads * kPerThread);
  // Joined writers: every one of their rings must read exact and ordered.
  int found = 0;
  for (const prof::ThreadTail& tail : prof::snapshot_rings()) {
    if (tail.events.empty() ||
        std::string(tail.events.front().what) != "concurrent")
      continue;
    ++found;
    EXPECT_EQ(tail.recorded, kPerThread);
    EXPECT_EQ(tail.events.size(), prof::kRingCapacity);
    for (std::size_t i = 1; i < tail.events.size(); ++i)
      EXPECT_EQ(tail.events[i].id, tail.events[i - 1].id + 1);
  }
  EXPECT_EQ(found, kThreads);
}

TEST(FlightRec, FdWriterEscapesAndAccountsEveryTail) {
  // A name that is only valid JSON once escaped, on a thread that
  // overflows its ring and has exited by the time of the dump.
  const char* kWhat = "fd \"q\" \\ \n";
  constexpr std::uint64_t kCount = prof::kRingCapacity + 44;
  std::thread t([&] {
    for (std::uint64_t i = 0; i < kCount; ++i)
      prof::record(prof::Ev::Mark, kWhat, static_cast<std::int64_t>(i));
  });
  t.join();

  const std::string dump = flight_record_via_fd(/*crash=*/true);
  const std::optional<obs::json::Value> doc = obs::json::parse(dump);
  ASSERT_TRUE(doc.has_value()) << dump.substr(0, 400);
  EXPECT_EQ(doc->find("schema")->as_string(), "gcr.flight_record");
  EXPECT_EQ(doc->number_or("version", 0), 1);
  EXPECT_TRUE(doc->find("crash")->as_bool());
  EXPECT_GE(doc->number_or("events_recorded", 0),
            static_cast<double>(kCount));
  int found = 0;
  for (const obs::json::Value& th : doc->find("threads")->as_array()) {
    const obs::json::Value::Array& evs = th.find("events")->as_array();
    if (evs.empty() || evs.back().find("what")->as_string() != kWhat)
      continue;
    ++found;
    EXPECT_TRUE(th.find("retired")->as_bool());
    EXPECT_EQ(th.number_or("dropped", -1),
              static_cast<double>(kCount - prof::kRingCapacity));
    EXPECT_EQ(evs.size(), prof::kRingCapacity);
    EXPECT_EQ(evs.back().number_or("a", -1), static_cast<double>(kCount - 1));
    EXPECT_EQ(evs.back().find("kind")->as_string(), "mark");
  }
  EXPECT_EQ(found, 1);
  EXPECT_FALSE(obs::json::parse(flight_record_via_fd(false))
                   ->find("crash")
                   ->as_bool());
}

// Each clustered route at width 4 spawns three lanes, and each lane takes
// over a slot that an earlier lane retired, so the registry stays at the
// peak number of live recording threads (this one plus three lanes).
TEST(FlightRec, ClusteredRoutesReuseRetiredSlots) {
  verify::DesignSpec spec = verify::random_spec(5);
  spec.num_sinks = 400;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.clustered = true;
  opts.num_threads = 4;
  prof::record(prof::Ev::Mark, "slots");  // this thread holds a slot
  const std::size_t before = prof::thread_count();
  for (int i = 0; i < 50; ++i) (void)router.route(opts);
  EXPECT_LE(prof::thread_count(), std::max<std::size_t>(before, 4) + 1);
}

TEST(FlightRec, ZeroDeadlineRouteDumpsExpiryTail) {
  verify::DesignSpec spec = verify::random_spec(77);
  spec.num_sinks = 64;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  const core::RouteOutcome out =
      router.route_guarded(opts, guard::Deadline::after_ms(0.0));
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.cancelled);

  const std::string dump = flight_record_via_fd(/*crash=*/false);
  EXPECT_TRUE(obs::json::valid(dump)) << dump.substr(0, 200);
  EXPECT_NE(dump.find("\"gcr.flight_record\""), std::string::npos);
  EXPECT_NE(dump.find("deadline_expired"), std::string::npos);
}

// --- hardware counters -----------------------------------------------------

TEST(HwCounters, EnvKnobForcesRusageFallback) {
  ASSERT_EQ(setenv("GCR_PROF_NO_HW", "1", 1), 0);
  const prof::HwInfo info = prof::enable_hw_counters();
  EXPECT_FALSE(info.perf_event);
  EXPECT_STREQ(info.source, "rusage");
  EXPECT_STREQ(info.names[0], "cpu_user_ns");
  ASSERT_NE(obs::hw_sampler(), nullptr);

  // The fallback sampler must still attach per-phase deltas.
  obs::Session session;
  obs::Bind bind(&session);
  {
    obs::ScopedTimer phase("hw_fallback_phase");
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i) sink = sink + 1.0 / (1.0 + i);
    (void)sink;
  }
  const obs::PhaseStats& root = session.timers().root();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0]->name, "hw_fallback_phase");
  EXPECT_TRUE(root.children[0]->has_hw);

  prof::disable_hw_counters();
  EXPECT_EQ(obs::hw_sampler(), nullptr);
  unsetenv("GCR_PROF_NO_HW");
}

// --- ticker: phase sampling ----------------------------------------------

TEST(Ticker, CreditsSelfToInnermostAndTotalToStack) {
  // ScopedTimer (and therefore the recorder's phase stack) is a no-op
  // without a bound session -- the sampler observes sessions, not bare
  // threads.
  obs::Session session;
  obs::Bind bind(&session);
  prof::Ticker sampler;
  prof::Ticker::Options opts;
  opts.sample_us = 100;
  prof::Ticker::Profile p;
  {
    obs::ScopedTimer outer("sampler_outer");
    obs::ScopedTimer inner("sampler_inner");
    // Sample only while both phases are open: a tick landing between the
    // two pushes or pops (microseconds, but a tick's worth under TSan)
    // would rightly credit the outer phase.
    sampler.start(opts);
    // Burn bounded wall-clock; at a 100us tick even a fraction of this
    // loop yields several samples.
    volatile double sink = 0.0;
    for (int spin = 0; spin < 4000; ++spin)
      for (int i = 0; i < 20000; ++i) sink = sink + 1.0 / (1.0 + i);
    (void)sink;
    p = sampler.stop();
  }
  EXPECT_FALSE(sampler.running());
  EXPECT_GT(p.ticks, 0u);
  EXPECT_EQ(p.snapshots, 0u);  // snapshot period 0: sampling only
  ASSERT_FALSE(p.entries.empty());
  std::uint64_t inner_self = 0, outer_total = 0, outer_self = 0;
  for (const prof::Ticker::Entry& e : p.entries) {
    EXPECT_GE(e.total, e.self);
    if (e.phase == "sampler_inner") inner_self = e.self;
    if (e.phase == "sampler_outer") {
      outer_total = e.total;
      outer_self = e.self;
    }
  }
  // The inner phase was open the whole time: all samples land there, and
  // the outer phase accrues them as total but never as self.
  EXPECT_GT(inner_self, 0u);
  EXPECT_GE(outer_total, inner_self);
  EXPECT_EQ(outer_self, 0u);
}

// --- spawned-lane observability -------------------------------------------

TEST(WorkerTrace, SpawnedLaneMergeEventsReachTheSessionSink) {
  obs::Session session;
  obs::Bind bind(&session);
  prof::Capture trace;
  verify::DesignSpec spec = verify::random_spec(91);
  spec.num_sinks = 128;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.clustered = true;
  opts.num_threads = 4;
  (void)router.route(opts);
  trace.stop();

  // 128 sinks make a 2x2 grid, so lanes 1-3 build cells on spawned
  // threads: merges recorded off the caller are certain. A lane that exits
  // before a later one starts hands its slot over, so take the last merge
  // of a lane whose ring tail still holds it (the last lane to start keeps
  // its own).
  const std::uint32_t caller = prof::thread_ordinal();
  const std::vector<prof::Event> events = trace.events();
  std::map<std::uint32_t, const prof::Event*> last_merge;
  for (const prof::Event& e : events)
    if (e.kind == prof::Ev::Merge && e.thread != caller)
      last_merge[e.thread] = &e;
  ASSERT_FALSE(last_merge.empty()) << "no spawned lane recorded a merge";

  // One ordinal per thread: the lane's merge names the same thread in the
  // flight record (its ring tail) and in the Chrome trace.
  const std::optional<obs::json::Value> record =
      obs::json::parse(flight_record_via_fd(false));
  ASSERT_TRUE(record.has_value());
  const prof::Event* lane = nullptr;
  for (const auto& [thread, merge] : last_merge) {
    std::set<double> ring_threads;
    for (const obs::json::Value& th : record->find("threads")->as_array())
      for (const obs::json::Value& e : th.find("events")->as_array())
        if (e.find("kind")->as_string() == "merge" &&
            e.number_or("id", 0) == static_cast<double>(merge->id) &&
            e.number_or("a", -1) == static_cast<double>(merge->a) &&
            e.number_or("b", -1) == static_cast<double>(merge->b) &&
            e.number_or("x", -1) == merge->x)
          ring_threads.insert(th.number_or("thread", -1));
    if (ring_threads.empty()) continue;  // its slot went to a later lane
    EXPECT_EQ(ring_threads, std::set<double>{static_cast<double>(thread)});
    lane = merge;
  }
  ASSERT_NE(lane, nullptr) << "no spawned lane's ring tail survived";

  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::optional<obs::json::Value> chrome = obs::json::parse(os.str());
  ASSERT_TRUE(chrome.has_value());
  std::set<double> chrome_tids;
  for (const obs::json::Value& e : chrome->as_array()) {
    if (e.find("name")->as_string() != "merge") continue;
    const obs::json::Value& args = *e.find("args");
    if (args.number_or("a", -1) == static_cast<double>(lane->a) &&
        args.number_or("b", -1) == static_cast<double>(lane->b) &&
        args.number_or("cost", -1) == lane->x)
      chrome_tids.insert(e.number_or("tid", -1));
  }
  EXPECT_EQ(chrome_tids, std::set<double>{static_cast<double>(lane->thread)});
}

TEST(WorkerTrace, RouteAtFourThreadsCapturesEveryMergeDecision) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  obs::Session session;
  prof::Capture trace;
  obs::Bind bind(&session);

  verify::DesignSpec spec = verify::random_spec(91);
  spec.num_sinks = 128;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  // Clustered: its per-cell engines run on spawned lanes.
  opts.clustered = true;
  opts.num_threads = 4;
  const core::RouterResult r = router.route(opts);
  EXPECT_EQ(r.tree.num_leaves, 128);

  trace.stop();
  std::size_t merges = 0, recomputes = 0;
  for (const prof::Event& e : trace.events()) {
    if (e.kind == prof::Ev::Merge) ++merges;
    if (e.kind == prof::Ev::Recompute) ++recomputes;
  }
  // One decision event per greedy merge (cell and top-level builds sum to
  // n - 1), regardless of which thread the engine ran on.
  EXPECT_EQ(merges, 127u);
  // Every best-partner recompute -- counted by the engine itself -- must
  // have reached the capture, including the ones spawned lanes executed.
  EXPECT_EQ(
      recomputes,
      obs::Registry::global().counter("cts.best_partner_recomputes").value());
  EXPECT_GT(recomputes, 0u);
  obs::set_metrics_enabled(false);
}

// --- run report ------------------------------------------------------------

/// Validator problems of `text`, or one "unparsable" entry.
std::vector<std::string> run_report_problems(const std::string& text) {
  const std::optional<obs::json::Value> doc = obs::json::parse(text);
  if (!doc) return {"unparsable: " + text.substr(0, 200)};
  return obs::validate_run_report(*doc);
}

TEST(RunReport, RoundTripsThroughTheValidator) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  obs::Session session;
  obs::Bind bind(&session);

  verify::DesignSpec spec = verify::random_spec(5);
  spec.num_sinks = 24;
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions ropts;
  ropts.style = core::TreeStyle::Gated;

  prof::Ticker ticker;
  prof::Ticker::Options topts;
  topts.sample_us = 200;
  ticker.start(topts);
  const core::RouterResult result = router.route(ropts);
  {
    obs::ScopedTimer phase("report_phase");
    volatile double sink = 0.0;
    for (int i = 0; i < 4000000; ++i) sink = sink + 1.0 / (1.0 + i);
    (void)sink;
  }
  const prof::Ticker::Profile p = ticker.stop();

  // Every combination of the two optional groups is a valid run report,
  // and each group appears exactly when it was asked for.
  for (const bool routed : {false, true}) {
    for (const bool profiled : {false, true}) {
      obs::RunReport rep;
      rep.tool = "prof_test";
      if (routed) {
        rep.options = &ropts;
        rep.result = &result;
      }
      if (profiled) {
        rep.profile = &p;
        rep.hw = prof::hw_info();
      }
      std::ostringstream os;
      obs::write_run_report(os, session, rep);
      const std::string text = os.str();
      const std::vector<std::string> problems = run_report_problems(text);
      EXPECT_TRUE(problems.empty())
          << routed << profiled << ": " << problems.front();
      const std::optional<obs::json::Value> doc = obs::json::parse(text);
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(doc->find("options") != nullptr, routed);
      EXPECT_EQ(doc->find("result") != nullptr, routed);
      EXPECT_EQ(doc->find("sampler") != nullptr, profiled);
      EXPECT_EQ(doc->find("hw") != nullptr, profiled);
      ASSERT_NE(doc->find("phases"), nullptr);
      ASSERT_NE(doc->find("counters"), nullptr);
    }
  }

  obs::RunReport full;
  full.tool = "prof_test";
  full.options = &ropts;
  full.result = &result;
  full.profile = &p;
  full.hw = prof::hw_info();
  std::ostringstream os;
  obs::write_run_report(os, session, full);
  const std::string text = os.str();

  // Negative: a wrong schema tag, a sampler without its hw keys, and half
  // of the routed group must each be reported, not silently accepted.
  std::string bogus = text;
  bogus.replace(bogus.find("gcr.run_report"),
                std::string("gcr.run_report").size(), "gcr.bogus");
  EXPECT_FALSE(run_report_problems(bogus).empty());

  std::string no_hw = text;
  no_hw.replace(no_hw.find("\"hw\""), 4, "\"hx\"");
  EXPECT_FALSE(run_report_problems(no_hw).empty());

  std::string no_result = text;
  no_result.replace(no_result.find("\"result\""), 8, "\"resulx\"");
  EXPECT_FALSE(run_report_problems(no_result).empty());
  obs::set_metrics_enabled(false);
}

TEST(FlightRec, PostmortemDumpWritesReadableFile) {
  prof::record(prof::Ev::Mark, "postmortem_test");
  const std::string path = "prof_test_postmortem.flightrec.json";
  ASSERT_TRUE(guard::postmortem_dump(path));
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::ostringstream ss;
  ss << is.rdbuf();
  EXPECT_TRUE(obs::json::valid(ss.str()));
  EXPECT_NE(ss.str().find("postmortem_test"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcr
