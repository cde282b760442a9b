#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/router.h"
#include "par/pool.h"
#include "verify/generator.h"

namespace gcr {
namespace {

// --- gcr::par primitives ---------------------------------------------------

TEST(Par, ResolveThreads) {
  EXPECT_EQ(par::resolve_threads(1), 1);
  EXPECT_EQ(par::resolve_threads(7), 7);
  EXPECT_EQ(par::resolve_threads(0), par::default_threads());
  EXPECT_GE(par::default_threads(), 1);
  EXPECT_GE(par::hardware_threads(), 1);
}

TEST(Par, ChunkCount) {
  EXPECT_EQ(par::detail::chunk_count(0, 16), 0);
  EXPECT_EQ(par::detail::chunk_count(1, 16), 1);
  EXPECT_EQ(par::detail::chunk_count(16, 16), 1);
  EXPECT_EQ(par::detail::chunk_count(17, 16), 2);
  EXPECT_EQ(par::detail::chunk_count(-5, 16), 0);
}

TEST(Par, ParallelForCoversEveryIndexOnce) {
  for (const int width : {1, 2, 4, 8}) {
    constexpr int kN = 4099;  // not a multiple of any grain
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    par::parallel_for(width, 0, kN, /*grain=*/17,
                      [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i)
                          hits[static_cast<std::size_t>(i)].fetch_add(1);
                      });
    for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(Par, ParallelForEmptyAndOffsetRanges) {
  int calls = 0;
  par::parallel_for(4, 5, 5, 8, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::int64_t> sum{0};
  par::parallel_for(4, 100, 200, 7, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(Par, ParallelReduceIsBitIdenticalAcrossWidths) {
  // Floating-point sum whose value depends on association order: if the
  // fold order ever varied with the width, some width would disagree.
  constexpr int kN = 20000;
  const auto run = [&](int width) {
    return par::parallel_reduce(
        width, 0, kN, /*grain=*/13, 0.0,
        [](std::int64_t b, std::int64_t e) {
          double s = 0.0;
          for (std::int64_t i = b; i < e; ++i)
            s += 1.0 / (1.0 + static_cast<double>(i) * 1.618033988749895);
          return s;
        },
        [](double x, double y) { return x + y; });
  };
  const double serial = run(1);
  for (const int width : {2, 4, 8}) {
    const double wide = run(width);
    EXPECT_EQ(serial, wide) << "width=" << width;  // bit-identical, not near
  }
}

TEST(Par, NestedConstructsSerializeWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  par::parallel_for(4, 0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      EXPECT_TRUE(par::in_worker());
      par::parallel_for(4, 0, 10, 2, [&](std::int64_t ib, std::int64_t ie) {
        inner_total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_FALSE(par::in_worker());
}

// Concurrent *callers* (the gcr::serve request lanes) each dispatching
// their own parallel constructs must serialize on the pool's dispatch
// lock instead of corrupting each other's chunk state: every caller's
// reduction must come back exact.
TEST(Par, ConcurrentCallersEachGetCorrectResults) {
  constexpr int kCallers = 4;
  constexpr std::int64_t kN = 4000;
  std::vector<std::int64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&sums, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const std::int64_t s = par::parallel_reduce<std::int64_t>(
            4, 0, kN, 64, 0,
            [](std::int64_t b, std::int64_t e) {
              std::int64_t acc = 0;
              for (std::int64_t i = b; i < e; ++i) acc += i;
              return acc;
            },
            [](std::int64_t a, std::int64_t b) { return a + b; });
        sums[static_cast<std::size_t>(t)] = s;
      }
    });
  }
  for (std::thread& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t)
    EXPECT_EQ(sums[static_cast<std::size_t>(t)], kN * (kN - 1) / 2);
}

TEST(Par, ExceptionFromChunkPropagates) {
  EXPECT_THROW(
      par::parallel_for(4, 0, 100, 1,
                        [&](std::int64_t b, std::int64_t) {
                          if (b == 57) throw std::runtime_error("chunk 57");
                        }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> n{0};
  par::parallel_for(4, 0, 32, 1,
                    [&](std::int64_t b, std::int64_t e) {
                      n.fetch_add(static_cast<int>(e - b));
                    });
  EXPECT_EQ(n.load(), 32);
}

// --- engine determinism across thread counts -------------------------------

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

/// Route the same design at widths 1/2/8 and require bit-identical routed
/// trees and switched-capacitance reports -- the gcr::par contract.
void expect_width_invariant(std::uint64_t seed, bool clustered) {
  verify::DesignSpec spec = verify::random_spec(seed);
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.topology = core::TopologyScheme::MinSwitchedCap;
  opts.clustered = clustered;
  opts.num_threads = 1;
  const core::RouterResult serial = router.route(opts);
  for (const int width : {2, 8}) {
    opts.num_threads = width;
    const core::RouterResult wide = router.route(opts);
    EXPECT_TRUE(routed_trees_identical(serial.tree, wide.tree))
        << "seed=" << seed << " clustered=" << clustered
        << " width=" << width;
    EXPECT_EQ(serial.swcap.total_swcap(), wide.swcap.total_swcap())
        << "seed=" << seed << " width=" << width;
  }
}

// The flat greedy is serial and ignores the width; pin that it stays so.
TEST(ParDeterminism, FlatGreedyIdenticalAtAnyWidth) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull})
    expect_width_invariant(seed, /*clustered=*/false);
}

TEST(ParDeterminism, ClusteredGreedyIdenticalAtAnyWidth) {
  for (const std::uint64_t seed : {404ull, 505ull})
    expect_width_invariant(seed, /*clustered=*/true);
}

}  // namespace
}  // namespace gcr
