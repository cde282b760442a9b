#include <gtest/gtest.h>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "core/router.h"

namespace gcr::core {
namespace {

GatedClockRouter make_router(int n, std::uint64_t seed) {
  benchdata::RBenchSpec spec{"tp", n, 9000.0, 0.005, 0.08, seed};
  benchdata::RBench rb = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = 16;
  wspec.target_activity = 0.35;
  wspec.stream_length = 4000;
  wspec.seed = seed;
  benchdata::Workload wl =
      benchdata::generate_workload(wspec, rb.sinks, rb.die);
  return GatedClockRouter(Design{rb.die, rb.sinks, std::move(wl.rtl),
                                 std::move(wl.stream), {}});
}

class TopologySchemes : public ::testing::TestWithParam<TopologyScheme> {};

TEST_P(TopologySchemes, RoutesWithZeroSkewAndValidActivity) {
  const GatedClockRouter router = make_router(40, 71);
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  opts.topology = GetParam();
  const RouterResult r = router.route(opts);
  EXPECT_EQ(r.tree.num_leaves, 40);
  EXPECT_LT(r.delays.skew(), 1e-6 * std::max(1.0, r.delays.max_delay));
  // Activity arrays are populated for every scheme (Mmm included).
  ASSERT_EQ(static_cast<int>(r.activity.p_en.size()), r.tree.num_nodes());
  EXPECT_NEAR(r.activity.p_en[static_cast<std::size_t>(r.tree.root)],
              1.0, 0.5);  // root enable prob is high but sane
  for (const double p : r.activity.p_en) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, TopologySchemes,
                         ::testing::Values(TopologyScheme::MinSwitchedCap,
                                           TopologyScheme::NearestNeighbor,
                                           TopologyScheme::ActivityOnly,
                                           TopologyScheme::Mmm));

TEST(TopologySchemes, MmmProducesBalancedDepths) {
  const GatedClockRouter router = make_router(64, 72);
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  opts.topology = TopologyScheme::Mmm;
  const RouterResult r = router.route(opts);
  for (int leaf = 0; leaf < 64; ++leaf) {
    int depth = 0;
    for (int id = leaf; r.tree.node(id).parent >= 0;
         id = r.tree.node(id).parent)
      ++depth;
    EXPECT_EQ(depth, 6);
  }
}

TEST(TopologySchemes, SchemesProduceDistinctTrees) {
  const GatedClockRouter router = make_router(48, 73);
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  opts.topology = TopologyScheme::NearestNeighbor;
  const RouterResult nn = router.route(opts);
  opts.topology = TopologyScheme::ActivityOnly;
  const RouterResult ao = router.route(opts);
  // Activity-only ignores geometry: it must spend more wire than NN here.
  EXPECT_GT(ao.tree.total_wirelength(), nn.tree.total_wirelength());
}

TEST(TopologySchemes, ClusteredModeRoutesZeroSkew) {
  const GatedClockRouter router = make_router(300, 75);
  RouterOptions opts;
  opts.style = TreeStyle::GatedReduced;
  opts.clustered = true;
  const RouterResult r = router.route(opts);
  EXPECT_EQ(r.tree.num_leaves, 300);
  EXPECT_LT(r.delays.skew(), 1e-6 * std::max(1.0, r.delays.max_delay));
  // Clustered and flat share the evaluation pipeline: report consistency.
  EXPECT_NEAR(r.swcap.total_swcap(),
              r.swcap.clock_swcap + r.swcap.ctrl_swcap, 1e-12);
}

TEST(TopologySchemes, BufferedAlwaysUsesNearestNeighbor) {
  const GatedClockRouter router = make_router(32, 74);
  RouterOptions a;
  a.style = TreeStyle::Buffered;
  a.topology = TopologyScheme::MinSwitchedCap;
  RouterOptions b = a;
  b.topology = TopologyScheme::Mmm;
  const RouterResult ra = router.route(a);
  const RouterResult rb = router.route(b);
  EXPECT_DOUBLE_EQ(ra.tree.total_wirelength(), rb.tree.total_wirelength());
  EXPECT_DOUBLE_EQ(ra.swcap.total_swcap(), rb.swcap.total_swcap());
}

}  // namespace
}  // namespace gcr::core
