#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/router.h"
#include "guard/fault.h"
#include "guard/status.h"
#include "io/text_io.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "verify/generator.h"

/// \file serve_test.cpp
/// The gcr::serve contract (docs/serving.md): explicit backpressure,
/// per-request fault isolation, cache hits bit-identical to cold routes,
/// and drains that lose nothing. Designs are generated, written to a
/// scratch directory and served from files -- the same path production
/// requests take.

namespace fs = std::filesystem;
using namespace gcr;

namespace {

/// Scratch directory holding generated design files; removed on teardown.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gcr_serve_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Write the seeded design as <stem>.{sinks,rtl,stream}; returns a
  /// ready-to-submit request (id defaults to the stem).
  io::RouteRequest write_design(std::uint64_t seed, const std::string& stem) {
    const verify::DesignSpec spec = verify::random_spec(seed);
    const core::Design d = verify::generate_design(spec);
    {
      std::ofstream os(dir_ / (stem + ".sinks"));
      io::write_sinks(os, d.die, d.sinks);
    }
    {
      std::ofstream os(dir_ / (stem + ".rtl"));
      io::write_rtl(os, d.rtl);
    }
    {
      std::ofstream os(dir_ / (stem + ".stream"));
      io::write_stream(os, d.stream);
    }
    io::RouteRequest req;
    req.id = stem;
    req.sinks = (dir_ / (stem + ".sinks")).string();
    req.rtl = (dir_ / (stem + ".rtl")).string();
    req.stream = (dir_ / (stem + ".stream")).string();
    return req;
  }

  /// Route the same seed directly through the library -- the one-shot
  /// reference a served result must match bit-for-bit.
  static core::RouterResult reference_route(std::uint64_t seed) {
    const verify::DesignSpec spec = verify::random_spec(seed);
    const core::GatedClockRouter router(verify::generate_design(spec));
    core::RouterOptions opts;
    opts.num_threads = 1;
    return router.route(opts);
  }

  /// Poll until `n` outcomes are recorded (requests settle out of order;
  /// this is the only wait the tests need).
  static void wait_for(const serve::BatchService& s, std::uint64_t n) {
    const auto settled = [&] {
      const serve::ServeStats st = s.stats();
      return st.done + st.shed + st.expired + st.invalid + st.errors >= n;
    };
    const auto t0 = std::chrono::steady_clock::now();
    while (!settled()) {
      ASSERT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::seconds(60))
          << "service never settled";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  fs::path dir_;
};

bool routed_trees_identical(const ct::RoutedTree& a, const ct::RoutedTree& b) {
  if (a.root != b.root || a.num_leaves != b.num_leaves ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const ct::RoutedNode& x = a.nodes[i];
    const ct::RoutedNode& y = b.nodes[i];
    if (x.left != y.left || x.right != y.right || x.parent != y.parent ||
        x.loc.x != y.loc.x || x.loc.y != y.loc.y ||
        x.edge_len != y.edge_len || x.gated != y.gated ||
        x.gate_size != y.gate_size || x.down_cap != y.down_cap ||
        x.delay != y.delay)
      return false;
  }
  return true;
}

}  // namespace

// --- backpressure ----------------------------------------------------------

TEST_F(ServeTest, QueueFullShedsWithOverload) {
  const io::RouteRequest req = write_design(11, "d11");
  serve::ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.policy = serve::AdmitPolicy::Shed;
  serve::BatchService service(opts);
  // Lanes not started yet: the queue fills deterministically.
  EXPECT_TRUE(service.submit(req));
  EXPECT_TRUE(service.submit(req));
  EXPECT_FALSE(service.submit(req));  // bound hit -> shed, not queued
  EXPECT_FALSE(service.submit(req));
  service.start();
  service.drain();
  const std::vector<serve::RequestOutcome> outs = service.take_outcomes();
  ASSERT_EQ(outs.size(), 4u);
  int done = 0;
  int shed = 0;
  for (const serve::RequestOutcome& o : outs) {
    if (o.state == serve::RequestState::Done) ++done;
    if (o.state == serve::RequestState::Shed) {
      ++shed;
      EXPECT_EQ(o.code, guard::Code::Overload);
      EXPECT_EQ(o.exit_code(), guard::kExitResource);
    }
  }
  EXPECT_EQ(done, 2);
  EXPECT_EQ(shed, 2);
  const serve::ServeStats st = service.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.shed, 2u);
  EXPECT_EQ(st.peak_queue_depth, 2u);
}

// --- per-request deadlines -------------------------------------------------

TEST_F(ServeTest, ExpiredRequestLeavesServiceHealthy) {
  io::RouteRequest doomed = write_design(22, "d22");
  doomed.id = "doomed";
  doomed.deadline_ms = 0.0;  // expires before the lane even reads a file
  io::RouteRequest fine = write_design(23, "d23");
  serve::ServeOptions opts;
  opts.workers = 1;
  serve::BatchService service(opts);
  service.start();
  EXPECT_TRUE(service.submit(doomed));
  EXPECT_TRUE(service.submit(fine));
  service.drain();
  const std::vector<serve::RequestOutcome> outs = service.take_outcomes();
  ASSERT_EQ(outs.size(), 2u);
  const serve::RequestOutcome& first =
      outs[0].id == "doomed" ? outs[0] : outs[1];
  const serve::RequestOutcome& second =
      outs[0].id == "doomed" ? outs[1] : outs[0];
  EXPECT_EQ(first.state, serve::RequestState::Expired);
  EXPECT_EQ(first.code, guard::Code::Deadline);
  EXPECT_EQ(first.exit_code(), guard::kExitResource);
  ASSERT_EQ(second.state, serve::RequestState::Done);
  EXPECT_TRUE(
      routed_trees_identical(second.result->tree, reference_route(23).tree));
}

// --- invalid designs ------------------------------------------------------

// A stream id outside the RTL's [0, K) is an input error the validator
// names, not an internal failure -- and it leaves the lane routing.
TEST_F(ServeTest, OutOfRangeStreamIdIsInvalidInput) {
  {
    std::ofstream os(dir_ / "bad.sinks");
    os << "die 0 0 100 100\n10 10 0.01\n50 80 0.02\n90 20 0.01\n";
  }
  {
    std::ofstream os(dir_ / "bad.rtl");
    os << "rtl 2 3\n0 0 1\n1 1 2\n";
  }
  {
    std::ofstream os(dir_ / "bad.stream");
    os << "0 1 0 1 5 1 0\n";
  }
  io::RouteRequest bad;
  bad.id = "bad";
  bad.sinks = (dir_ / "bad.sinks").string();
  bad.rtl = (dir_ / "bad.rtl").string();
  bad.stream = (dir_ / "bad.stream").string();
  io::RouteRequest fine = write_design(44, "d44");
  serve::ServeOptions opts;
  opts.workers = 1;
  serve::BatchService service(opts);
  service.start();
  EXPECT_TRUE(service.submit(bad));
  EXPECT_TRUE(service.submit(fine));
  service.drain();
  const std::vector<serve::RequestOutcome> outs = service.take_outcomes();
  ASSERT_EQ(outs.size(), 2u);
  ASSERT_EQ(outs[0].id, "bad");
  EXPECT_EQ(outs[0].state, serve::RequestState::Invalid);
  EXPECT_EQ(outs[0].code, guard::Code::StreamId);
  EXPECT_EQ(outs[0].exit_code(), guard::kExitInvalidInput);
  EXPECT_EQ(outs[0].message,
            "error GCR_E_STREAM_ID: 1 stream entries reference instructions "
            "outside [0, 2); first at cycle 4 (id 5)");
  ASSERT_EQ(outs[1].state, serve::RequestState::Done) << outs[1].message;
  EXPECT_TRUE(
      routed_trees_identical(outs[1].result->tree, reference_route(44).tree));
}

// --- content-hash caching --------------------------------------------------

TEST_F(ServeTest, CacheHitIsBitIdenticalToColdRoute) {
  io::RouteRequest req = write_design(33, "d33");
  io::RouteRequest again = req;
  again.id = "again";
  serve::ServeOptions opts;
  opts.workers = 1;  // serial lane: the second request must hit warm
  serve::BatchService service(opts);
  service.start();
  EXPECT_TRUE(service.submit(req));
  EXPECT_TRUE(service.submit(again));
  service.drain();
  const std::vector<serve::RequestOutcome> outs = service.take_outcomes();
  ASSERT_EQ(outs.size(), 2u);
  ASSERT_EQ(outs[0].state, serve::RequestState::Done);
  ASSERT_EQ(outs[1].state, serve::RequestState::Done);
  EXPECT_FALSE(outs[0].cache_hit);
  EXPECT_TRUE(outs[1].cache_hit);
  EXPECT_TRUE(outs[1].design_cache_hit);
  // Warm result identical to the cold one AND to a one-shot library route.
  EXPECT_TRUE(
      routed_trees_identical(outs[0].result->tree, outs[1].result->tree));
  const core::RouterResult ref = reference_route(33);
  EXPECT_TRUE(routed_trees_identical(outs[1].result->tree, ref.tree));
  EXPECT_EQ(outs[1].result->swcap.total_swcap(), ref.swcap.total_swcap());
  const serve::ServeStats st = service.stats();
  EXPECT_EQ(st.result_cache.hits, 1u);
  EXPECT_EQ(st.design_cache.hits, 1u);
}

TEST_F(ServeTest, CacheEvictionKeepsBoundAndCounts) {
  serve::ServeOptions opts;
  opts.workers = 1;
  opts.design_cache_capacity = 2;
  opts.result_cache_capacity = 2;
  serve::BatchService service(opts);
  service.start();
  for (std::uint64_t seed = 40; seed < 45; ++seed)
    EXPECT_TRUE(
        service.submit(write_design(seed, "d" + std::to_string(seed))));
  service.drain();
  for (const serve::RequestOutcome& o : service.take_outcomes())
    EXPECT_EQ(o.state, serve::RequestState::Done);
  const serve::ServeStats st = service.stats();
  EXPECT_EQ(st.result_cache.entries, 2u);  // bound held
  EXPECT_EQ(st.result_cache.evictions, 3u);
  EXPECT_EQ(st.design_cache.entries, 2u);
  EXPECT_EQ(st.design_cache.evictions, 3u);
}

// --- graceful drain --------------------------------------------------------

TEST_F(ServeTest, DrainUnderLoadCompletesEveryAdmittedRequest) {
  std::vector<io::RouteRequest> reqs;
  for (std::uint64_t seed = 50; seed < 56; ++seed)
    reqs.push_back(write_design(seed, "d" + std::to_string(seed)));
  serve::ServeOptions opts;
  opts.workers = 3;
  serve::BatchService service(opts);
  service.start();
  std::uint64_t admitted = 0;
  for (int rep = 0; rep < 3; ++rep)
    for (io::RouteRequest r : reqs) {
      r.id += "_rep" + std::to_string(rep);
      if (service.submit(std::move(r))) ++admitted;
    }
  // Drain races the lanes: everything admitted above must still complete.
  service.drain();
  const std::vector<serve::RequestOutcome> outs = service.take_outcomes();
  ASSERT_EQ(outs.size(), 18u);
  std::uint64_t done = 0;
  for (const serve::RequestOutcome& o : outs) {
    EXPECT_NE(o.state, serve::RequestState::Error) << o.id << ": " << o.message;
    if (o.state == serve::RequestState::Done) ++done;
  }
  EXPECT_EQ(done, admitted);
  // Submissions after drain shed instead of vanishing.
  EXPECT_FALSE(service.submit(reqs[0]));
  EXPECT_EQ(service.take_outcomes().size(), 1u);
}

// --- fault isolation -------------------------------------------------------

// An injected fault while request N is in flight (admission, file read or
// parse, depending on where the nth visit lands) must fail N with a
// contract code and leave the service routing request N+1 normally --
// including when N+1 needs the exact intermediates N was building when it
// died.
TEST_F(ServeTest, InjectedFaultDoesNotPoisonTheNextRequest) {
  for (const std::uint64_t nth : {1ull, 2ull, 3ull, 5ull, 9ull, 17ull}) {
    SCOPED_TRACE("nth=" + std::to_string(nth));
    serve::ServeOptions opts;
    opts.workers = 1;
    serve::BatchService service(opts);
    service.start();
    EXPECT_TRUE(service.submit(write_design(61, "healthy")));
    wait_for(service, 1);

    guard::FaultInjector::global().arm({/*seed=*/nth, /*nth=*/nth, 0.0});
    io::RouteRequest victim = write_design(62, "victim");
    (void)service.submit(victim);  // may itself shed at serve.enqueue
    wait_for(service, 2);
    guard::FaultInjector::global().disarm();

    io::RouteRequest retry = victim;  // same design the victim poisoned
    retry.id = "retry";
    EXPECT_TRUE(service.submit(retry));
    service.drain();

    const std::vector<serve::RequestOutcome> outs = service.take_outcomes();
    ASSERT_EQ(outs.size(), 3u);
    ASSERT_EQ(outs[0].id, "healthy");
    EXPECT_EQ(outs[0].state, serve::RequestState::Done);
    const serve::RequestOutcome& hurt = outs[1];
    if (guard::FaultInjector::global().faults_fired() > 0) {
      EXPECT_NE(hurt.state, serve::RequestState::Done)
          << "fault fired but request " << hurt.id << " claims success";
      EXPECT_NE(hurt.code, guard::Code::Ok);
      EXPECT_NE(hurt.exit_code(), guard::kExitOk);
    }
    const serve::RequestOutcome& retried = outs[2];
    ASSERT_EQ(retried.state, serve::RequestState::Done)
        << retried.message << " (code "
        << guard::code_name(retried.code) << ")";
    EXPECT_TRUE(routed_trees_identical(retried.result->tree,
                                       reference_route(62).tree))
        << "post-fault route differs from the one-shot reference";
  }
}

// --- the serve cache primitive ---------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsedAndInvalidates) {
  serve::LruCache<int> cache("test.cache", 2);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, std::make_shared<const int>(10));
  cache.put(2, std::make_shared<const int>(20));
  ASSERT_NE(cache.get(1), nullptr);  // 1 now most recent
  std::uint64_t victim = 0;
  EXPECT_TRUE(cache.put(3, std::make_shared<const int>(30), &victim));
  EXPECT_EQ(victim, 2u);  // 2 was the LRU entry
  EXPECT_EQ(cache.get(2), nullptr);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(*cache.get(1), 10);
  EXPECT_TRUE(cache.invalidate(1));
  EXPECT_FALSE(cache.invalidate(1));
  EXPECT_EQ(cache.get(1), nullptr);
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.capacity, 2u);
}

TEST(LruCache, ZeroCapacityDisables) {
  serve::LruCache<int> cache("test.disabled", 0);
  EXPECT_FALSE(cache.put(1, std::make_shared<const int>(1)));
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(LruCache, ContentHashIsStable) {
  // Pinned values: cache keys feed log payloads and cross-run comparisons,
  // so the hash must never drift silently.
  EXPECT_EQ(serve::hash_bytes(""), 14695981039346656037ull);
  EXPECT_EQ(serve::hash_bytes("reqs"), 5525736559236522720ull);
  EXPECT_NE(serve::hash_bytes("a", 1), serve::hash_bytes("a", 2));
  EXPECT_NE(serve::hash_combine(1, 2), serve::hash_combine(2, 1));
}
