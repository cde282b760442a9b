#include <gtest/gtest.h>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "core/router.h"

namespace gcr::core {
namespace {

Design make_design(int n, std::uint64_t seed, double activity) {
  benchdata::RBenchSpec spec{"t", n, 8000.0, 0.005, 0.08, seed};
  benchdata::RBench bench = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = 16;
  wspec.num_clusters = 9;
  wspec.target_activity = activity;
  wspec.stream_length = 5000;
  wspec.seed = seed;
  benchdata::Workload wl =
      benchdata::generate_workload(wspec, bench.sinks, bench.die);
  return Design{bench.die, bench.sinks, std::move(wl.rtl),
                std::move(wl.stream), {}};
}

class RouterTest : public ::testing::Test {
 protected:
  GatedClockRouter router{make_design(48, 21, 0.35)};
};

TEST_F(RouterTest, AllStylesAchieveZeroSkew) {
  for (const auto style : {TreeStyle::Buffered, TreeStyle::Gated,
                           TreeStyle::GatedReduced}) {
    RouterOptions opts;
    opts.style = style;
    const RouterResult r = router.route(opts);
    EXPECT_LT(r.delays.skew(), 1e-6 * std::max(1.0, r.delays.max_delay))
        << "style " << static_cast<int>(style);
    EXPECT_EQ(r.tree.num_leaves, 48);
  }
}

TEST_F(RouterTest, BufferedHasNoControllerCost) {
  RouterOptions opts;
  opts.style = TreeStyle::Buffered;
  const RouterResult r = router.route(opts);
  EXPECT_DOUBLE_EQ(r.swcap.ctrl_swcap, 0.0);
  EXPECT_DOUBLE_EQ(r.swcap.star_wirelength, 0.0);
  EXPECT_NEAR(r.swcap.clock_swcap, r.swcap.ungated_swcap, 1e-9);
  EXPECT_EQ(r.gates_before_reduction, 0);
}

TEST_F(RouterTest, GatedHasGateOnEveryEdge) {
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  const RouterResult r = router.route(opts);
  EXPECT_EQ(r.tree.num_gates(), 2 * 48 - 2);
  EXPECT_GT(r.swcap.ctrl_swcap, 0.0);
  EXPECT_GT(r.swcap.star_wirelength, 0.0);
  // Masking can only reduce clock-tree switching.
  EXPECT_LE(r.swcap.clock_swcap, r.swcap.ungated_swcap + 1e-9);
}

TEST_F(RouterTest, ReductionRemovesGatesAndCutsControllerCost) {
  RouterOptions gated;
  gated.style = TreeStyle::Gated;
  RouterOptions reduced;
  reduced.style = TreeStyle::GatedReduced;
  const RouterResult g = router.route(gated);
  const RouterResult r = router.route(reduced);
  EXPECT_LT(r.tree.num_gates(), g.tree.num_gates());
  EXPECT_GT(r.gate_reduction_pct(), 0.0);
  EXPECT_LT(r.swcap.ctrl_swcap, g.swcap.ctrl_swcap);
  EXPECT_LT(r.swcap.star_wirelength, g.swcap.star_wirelength);
}

TEST_F(RouterTest, GatedReducedBeatsBufferedOnTotalSwCap) {
  // The paper's headline claim at moderate activity (section 5.1).
  RouterOptions buffered;
  buffered.style = TreeStyle::Buffered;
  RouterOptions reduced;
  reduced.style = TreeStyle::GatedReduced;
  const RouterResult b = router.route(buffered);
  const RouterResult r = router.route(reduced);
  EXPECT_LT(r.swcap.total_swcap(), b.swcap.total_swcap());
}

TEST_F(RouterTest, DistributedControllersShrinkStarWirelength) {
  RouterOptions k1;
  k1.style = TreeStyle::Gated;
  k1.controller_partitions = 1;
  RouterOptions k16 = k1;
  k16.controller_partitions = 16;
  const RouterResult r1 = router.route(k1);
  const RouterResult r16 = router.route(k16);
  EXPECT_LT(r16.swcap.star_wirelength, r1.swcap.star_wirelength);
  EXPECT_LT(r16.swcap.ctrl_swcap, r1.swcap.ctrl_swcap);
  // The clock tree itself is untouched by the controller layout.
  EXPECT_NEAR(r16.swcap.clock_swcap, r1.swcap.clock_swcap, 1e-9);
}

TEST_F(RouterTest, SwCapReportIsInternallyConsistent) {
  RouterOptions opts;
  opts.style = TreeStyle::GatedReduced;
  const RouterResult r = router.route(opts);
  EXPECT_NEAR(r.swcap.total_swcap(), r.swcap.clock_swcap + r.swcap.ctrl_swcap,
              1e-12);
  EXPECT_NEAR(r.swcap.total_area(), r.swcap.wire_area + r.swcap.cell_area,
              1e-9);
  EXPECT_NEAR(r.swcap.wire_area,
              (r.swcap.clock_wirelength + r.swcap.star_wirelength) *
                  RouterOptions{}.tech.wire_width,
              1e-6);
  EXPECT_EQ(r.swcap.num_cells, r.tree.num_gates());
}

TEST(Router, AlwaysActiveWorkloadGainsNothing) {
  // With every module active every cycle, gating cannot mask any cycle:
  // the gated tree's W(T) equals its ungated reference and the controller
  // is pure overhead.
  Design d = make_design(24, 33, 0.4);
  // Overwrite the workload so every instruction uses every module.
  activity::RtlDescription rtl(4, 24);
  for (int i = 0; i < 4; ++i)
    for (int m = 0; m < 24; ++m) rtl.add_use(i, m);
  d.rtl = std::move(rtl);
  d.stream.seq.clear();
  for (int t = 0; t < 1000; ++t) d.stream.seq.push_back(t % 4);
  GatedClockRouter router(std::move(d));
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  const RouterResult r = router.route(opts);
  EXPECT_NEAR(r.swcap.clock_swcap, r.swcap.ungated_swcap, 1e-9);
  // Enables never toggle: the controller tree switches nothing.
  EXPECT_NEAR(r.swcap.ctrl_swcap, 0.0, 1e-9);
}

TEST(Router, IdleWorkloadClockFullyMasked) {
  // One instruction drives a single module; the rest of the chip is idle.
  Design d = make_design(24, 34, 0.4);
  activity::RtlDescription rtl(2, 24);
  rtl.add_use(0, 0);
  rtl.add_use(1, 0);
  d.rtl = std::move(rtl);
  d.stream.seq.clear();
  for (int t = 0; t < 1000; ++t) d.stream.seq.push_back(t % 2);
  GatedClockRouter router(std::move(d));
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  const RouterResult r = router.route(opts);
  // Everything except module 0's path is gated off forever.
  EXPECT_LT(r.swcap.clock_swcap, 0.25 * r.swcap.ungated_swcap);
}

TEST(Router, SinkModuleMappingIsRespected) {
  benchdata::RBenchSpec spec{"t", 6, 2000.0, 0.01, 0.02, 35};
  benchdata::RBench bench = benchdata::generate_rbench(spec);
  // 12 modules; sinks map to the even ones.
  activity::RtlDescription rtl(2, 12);
  for (int m = 0; m < 12; m += 2) rtl.add_use(0, m);
  for (int m = 1; m < 12; m += 2) rtl.add_use(1, m);
  activity::InstructionStream stream;
  for (int t = 0; t < 100; ++t) stream.seq.push_back(t % 2);
  Design d{bench.die, bench.sinks, std::move(rtl), std::move(stream),
           {0, 2, 4, 6, 8, 10}};
  GatedClockRouter router(std::move(d));
  RouterOptions opts;
  opts.style = TreeStyle::Gated;
  const RouterResult r = router.route(opts);
  // All sinks share instruction 0, which runs half the cycles.
  for (int i = 0; i < 6; ++i)
    EXPECT_DOUBLE_EQ(r.activity.p_en[static_cast<std::size_t>(i)], 0.5);
}

template <typename E>
void expect_table_round_trips() {
  std::string names;
  for (const NamedValue<E>& n : OptionNames<E>::table) {
    EXPECT_EQ(option_name(n.value), n.name);
    EXPECT_EQ(option_from_name<E>(n.name), n.value);
    if (!names.empty()) names += '|';
    names += n.name;
  }
  EXPECT_EQ(option_name_list<E>(), names);
  for (const char* junk : {"", "junk", "Gated", " nn", "nn ", "swcap|nn"})
    EXPECT_FALSE(option_from_name<E>(junk).has_value()) << junk;
}

TEST(OptionNames, TreeStylesRoundTripAndRejectJunk) {
  expect_table_round_trips<TreeStyle>();
  // Every enumerator is in the table, in declaration order.
  ASSERT_EQ(OptionNames<TreeStyle>::table.size(), 3u);
  EXPECT_EQ(OptionNames<TreeStyle>::table.back().value,
            TreeStyle::GatedReduced);
  EXPECT_EQ(option_name_list<TreeStyle>(), "buffered|gated|reduced");
}

TEST(OptionNames, TopologySchemesRoundTripAndRejectJunk) {
  expect_table_round_trips<TopologyScheme>();
  ASSERT_EQ(OptionNames<TopologyScheme>::table.size(), 4u);
  EXPECT_EQ(OptionNames<TopologyScheme>::table.back().value,
            TopologyScheme::Mmm);
  EXPECT_EQ(option_name_list<TopologyScheme>(), "swcap|nn|activity|mmm");
  EXPECT_EQ(option_name(static_cast<TopologyScheme>(99)), "?");
}

}  // namespace
}  // namespace gcr::core
