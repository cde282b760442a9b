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
        tree_hashes(pinned_tree_hashes())})
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
