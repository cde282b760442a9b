// The paper gate's claim checks (bench/paper_claims.h) on hand-made rows:
// the rows `paper` prints at the committed code pass, and each check fails
// on one violating row with a line naming the claim, the value and the band.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "paper_claims.h"

using namespace gcr::bench::paper;

namespace {

// --- the committed rows, as `paper` prints them -----------------------------

std::vector<Table4Row> table4() {
  return {{"r1", 267, 0.393},
          {"r2", 598, 0.396},
          {"r3", 862, 0.401},
          {"r4", 1903, 0.402},
          {"r5", 3101, 0.390}};
}

std::vector<Fig3Row> fig3() {
  // W buffered, gated, reduced; area buffered, reduced [1e6 lambda^2]
  return {{"r1", 110.7, 130.1, 74.8, 0.56, 1.37},
          {"r2", 247.6, 353.1, 179.8, 1.24, 2.73},
          {"r3", 368.3, 592.1, 252.7, 1.85, 2.97},
          {"r4", 806.1, 1784.2, 530.1, 4.06, 6.25},
          {"r5", 1321.2, 3069.7, 839.6, 6.65, 9.19}};
}

std::vector<Fig4Row> fig4() {
  // activity, W buffered, W reduced, W(T)/ungated
  return {{0.1, 110.7, 26.7, 0.201},  {0.2, 110.7, 45.8, 0.345},
          {0.3, 110.7, 55.2, 0.399},  {0.4, 110.7, 74.8, 0.550},
          {0.5, 110.7, 86.2, 0.647},  {0.6, 110.7, 101.7, 0.771},
          {0.7, 110.7, 111.5, 0.814}, {0.8, 110.7, 118.5, 0.917},
          {0.9, 110.7, 110.7, 0.994}};
}

std::vector<Fig5Row> fig5() {
  // strength, W(T), W(S), total area
  return {{0.0, 62.5, 67.6, 6.08}, {0.1, 67.1, 38.0, 3.72},
          {0.2, 68.3, 31.8, 3.19}, {0.3, 70.2, 21.1, 2.33},
          {0.4, 68.2, 16.0, 1.89}, {0.5, 64.2, 10.5, 1.37},
          {0.6, 69.5, 8.4, 1.17},  {0.7, 74.3, 3.9, 0.76},
          {0.8, 88.1, 1.3, 0.57},  {0.9, 91.8, 0.1, 0.46},
          {1.0, 103.5, 0.0, 0.46}};
}

std::vector<Fig6Row> fig6() {
  return {{"r1", 1, 1.0},   {"r1", 4, 0.505}, {"r1", 16, 0.234},
          {"r1", 64, 0.123}, {"r2", 1, 1.0},   {"r2", 4, 0.516},
          {"r2", 16, 0.241}, {"r2", 64, 0.127}, {"r3", 1, 1.0},
          {"r3", 4, 0.521},  {"r3", 16, 0.255}, {"r3", 64, 0.123}};
}

std::vector<TopologyRow> topology() {
  // wirelength NN, activity-only [1e3 lambda]; W NN, Eq. 3 [pF]
  return {{"r1", 480, 923, 77.7, 74.8},
          {"r2", 1137, 2707, 181.8, 184.2},
          {"r3", 1666, 4380, 270.7, 269.7}};
}

std::vector<SizingRow> sizing() {
  // strength, snake unit, min-wire [1e3 lambda]; W unit, min-wire [pF]
  return {{0.0, 18, 7, 130.1, 124.3},
          {0.3, 112, 100, 91.3, 93.2},
          {0.5, 40, 36, 74.8, 76.1},
          {0.7, 24, 23, 78.1, 79.9}};
}

std::vector<SkewBoundRow> skew_bound() {
  // budget, measured skew [ps], W [pF]
  return {{0, 0.0, 74.8},     {2, 0.239, 74.8},  {5, 3.932, 74.6},
          {10, 9.631, 72.2},  {25, 23.152, 71.5}, {50, 30.471, 71.4},
          {100, 61.792, 71.0}};
}

std::vector<LogicRow> logic() {
  // ORs flat, hierarchical
  return {{"r1", 1, 520, 256},   {"r1", 4, 520, 352},
          {"r1", 16, 520, 457},  {"r2", 1, 1076, 586},
          {"r2", 4, 1076, 678},  {"r2", 16, 1490, 1107}};
}

std::vector<VariationRow> variation() {
  return {{"buffered", 17.78}, {"gated", 17.36}, {"gated+red", 16.40}};
}

std::vector<LargeRow> large() {
  // sinks, W buffered, reduced [pF], skew [ps]
  return {{6000, 2476.3, 1676.5, 0.0}, {12000, 5012.9, 3067.3, 0.0}};
}

/// `check` fails exactly once on `rows`, naming `claim`.
template <typename Check, typename Rows>
void expect_one_failure(Check check, const Rows& rows,
                        const std::string& claim) {
  const Failures f = check(rows);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rfind(claim, 0), 0u) << f[0];
  EXPECT_NE(f[0].find(": measured "), std::string::npos) << f[0];
  EXPECT_NE(f[0].find(", band "), std::string::npos) << f[0];
}

}  // namespace

TEST(PaperClaims, CommittedRowsPass) {
  for (const Failures& f :
       {table4_sinks(table4()), table4_activity(table4()),
        fig3_gated_worse(fig3()), fig3_reduced_ratio(fig3()),
        fig3_reduced_area(fig3()), fig4_buffered_flat(fig4()),
        fig4_ratio_rises(fig4()), fig4_crossover(fig4()),
        fig4_gated_floor(fig4()), fig5_ws_falls(fig5()),
        fig5_area_falls(fig5()), fig5_interior_minimum(fig5()),
        fig5_wt_rises(fig5()), fig6_sqrt_k(fig6()),
        tree_hashes(pinned_tree_hashes()), topology_activity_wire(topology()),
        topology_eq3_near_nn(topology()), sizing_full_gating(sizing()),
        skew_bound_honored(skew_bound()), skew_bound_w_falls(skew_bound()),
        logic_sharing_pays(logic()), logic_sharing_erodes(logic()),
        variation_skew_share(variation()), large_reduced_ratio(large()),
        large_zero_skew(large())})
    EXPECT_TRUE(f.empty()) << f.front();
}

TEST(PaperClaims, Table4) {
  auto rows = table4();
  rows[2].sinks = 861;
  expect_one_failure(table4_sinks, rows, "Table 4: sinks");
  rows = table4();
  rows[4].ave_activity = 0.46;
  expect_one_failure(table4_activity, rows, "Table 4 r5: Ave(M(I))");
}

TEST(PaperClaims, Fig3) {
  auto rows = fig3();
  rows[0].gated_w = 110.0;
  expect_one_failure(fig3_gated_worse, rows, "Fig. 3 r1: Gated W");
  rows = fig3();
  rows[1].reduced_w = 187.0;  // 0.755
  expect_one_failure(fig3_reduced_ratio, rows, "Fig. 3 r2: GateRed W");
  rows = fig3();
  rows[3].reduced_area = 4.0;
  expect_one_failure(fig3_reduced_area, rows, "Fig. 3 r4: GateRed area");
}

TEST(PaperClaims, Fig4) {
  auto rows = fig4();
  rows[4].buffered_w = 110.8;
  expect_one_failure(fig4_buffered_flat, rows, "Fig. 4 activity 0.5");
  rows = fig4();
  rows[2].reduced_w = 45.0;  // ratio 0.406 after 0.414
  expect_one_failure(fig4_ratio_rises, rows, "Fig. 4 activity 0.3");
  rows = fig4();
  rows[4].reduced_w = 111.0;  // crosses at 0.5
  expect_one_failure(fig4_crossover, rows, "Fig. 4: first activity");
  for (auto& r : rows) r.reduced_w = 100.0;  // never crosses
  expect_one_failure(fig4_crossover, rows, "Fig. 4: first activity");
  rows = fig4();
  rows[2].wt_per_ungated = 0.29;
  expect_one_failure(fig4_gated_floor, rows, "Fig. 4 activity 0.3");
}

TEST(PaperClaims, Fig5) {
  auto rows = fig5();
  rows[6].ws = 11.0;
  expect_one_failure(fig5_ws_falls, rows, "Fig. 5 strength 0.6");
  rows = fig5();
  rows[2].area = 3.8;
  expect_one_failure(fig5_area_falls, rows, "Fig. 5 strength 0.2");
  rows = fig5();
  rows.back().wt = 70.0;  // the minimum moves to the end
  expect_one_failure(fig5_interior_minimum, rows, "Fig. 5: strength");
  rows = fig5();
  rows.back().wt = 60.0;
  expect_one_failure(fig5_wt_rises, rows, "Fig. 5: W(T)");
}

TEST(PaperClaims, Fig6) {
  auto rows = fig6();
  rows[2].wl_ratio = 0.224;  // r1 k=16, 10.4% low
  expect_one_failure(fig6_sqrt_k, rows, "Fig. 6 r1 k=16");
}

TEST(PaperClaims, Trees) {
  auto rows = pinned_tree_hashes();
  rows[2].gated ^= 1;
  expect_one_failure(tree_hashes, rows, "Trees r3:");
  rows = pinned_tree_hashes();
  rows.pop_back();
  expect_one_failure(tree_hashes, rows, "Trees: designs");
}

TEST(PaperClaims, TopologyAblation) {
  auto rows = topology();
  rows[1].activity_wirelength = 1600;  // 1.41x
  expect_one_failure(topology_activity_wire, rows,
                     "Topology ablation r2: activity-only");
  rows = topology();
  rows[2].eq3_w = 285.0;  // 1.053
  expect_one_failure(topology_eq3_near_nn, rows, "Topology ablation r3: Eq. 3");
}

TEST(PaperClaims, GateSizing) {
  auto rows = sizing();
  rows[0].sized_snake = 19;
  expect_one_failure(sizing_full_gating, rows,
                     "Gate sizing strength 0: min-wire snake");
  rows = sizing();
  rows[0].sized_w = 131.0;
  expect_one_failure(sizing_full_gating, rows,
                     "Gate sizing strength 0: min-wire W");
  rows = sizing();
  rows.erase(rows.begin());
  expect_one_failure(sizing_full_gating, rows, "Gate sizing: rows");
}

TEST(PaperClaims, SkewBound) {
  auto rows = skew_bound();
  rows[5].skew = 50.5;
  expect_one_failure(skew_bound_honored, rows, "Skew budget 50 ps: measured");
  rows = skew_bound();
  rows[4].w = 72.3;
  expect_one_failure(skew_bound_w_falls, rows, "Skew budget 25 ps: W");
}

TEST(PaperClaims, ControllerLogic) {
  auto rows = logic();
  rows[3].hierarchical_ors = 1100;
  expect_one_failure(logic_sharing_pays, rows, "Controller logic r2 k=1");
  rows = logic();
  rows[2].hierarchical_ors = 300;  // r1 k=16 below k=4
  expect_one_failure(logic_sharing_erodes, rows, "Controller logic r1 k=16");
}

TEST(PaperClaims, Variation) {
  auto rows = variation();
  rows[2].skew_pct = 21.0;
  expect_one_failure(variation_skew_share, rows, "Variation gated+red");
}

TEST(PaperClaims, LargeDesign) {
  auto rows = large();
  rows[0].reduced_w = 1800.0;  // 0.727
  expect_one_failure(large_reduced_ratio, rows, "Large design 6000 sinks");
  rows = large();
  rows[1].max_skew = 0.5;
  expect_one_failure(large_zero_skew, rows, "Large design 12000 sinks: skew");
}
