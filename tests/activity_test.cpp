#include <gtest/gtest.h>

#include <cstdint>

#include "activity/analyzer.h"
#include "activity/brute_force.h"
#include "activity/ift.h"
#include "activity/imatt.h"
#include "benchdata/paper_example.h"

namespace gcr::activity {
namespace {

ModuleSet modules(int n, std::initializer_list<int> ids) {
  ModuleSet s(n);
  for (const int m : ids) s.set(m);
  return s;
}

// ---------------------------------------------------------------- BitSet --

TEST(BitSet, SetTestReset) {
  BitSet s(130);
  s.set(0);
  s.set(64);
  s.set(129);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(129));
  EXPECT_FALSE(s.test(1));
  EXPECT_EQ(s.count(), 3);
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 2);
}

TEST(BitSet, UnionAndIntersects) {
  BitSet a(70), b(70);
  a.set(3);
  a.set(65);
  b.set(65);
  b.set(10);
  EXPECT_TRUE(a.intersects(b));
  const BitSet u = a | b;
  EXPECT_EQ(u.count(), 3);
  b.reset(65);
  EXPECT_FALSE(a.intersects(b));
}

TEST(BitSet, ForEachVisitsAscending) {
  BitSet s(200);
  for (const int i : {5, 63, 64, 127, 128, 199}) s.set(i);
  std::vector<int> seen;
  s.for_each([&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{5, 63, 64, 127, 128, 199}));
}

// ------------------------------------------------------- paper example ----

class PaperExampleTest : public ::testing::Test {
 protected:
  benchdata::PaperExample ex = benchdata::paper_example();
};

TEST_F(PaperExampleTest, Table1RtlDescription) {
  EXPECT_EQ(ex.rtl.num_instructions(), 4);
  EXPECT_EQ(ex.rtl.num_modules(), 6);
  EXPECT_TRUE(ex.rtl.uses(0, 0));   // I1 uses M1
  EXPECT_TRUE(ex.rtl.uses(0, 4));   // I1 uses M5
  EXPECT_FALSE(ex.rtl.uses(0, 5));  // I1 does not use M6
  EXPECT_TRUE(ex.rtl.uses(2, 5));   // I3 uses M6
  EXPECT_EQ(ex.rtl.module_set(1).count(), 2);  // I2: M1 M4
}

TEST_F(PaperExampleTest, Table2InstructionFrequencies) {
  const Ift ift(count_stream(ex.stream, 4));
  EXPECT_EQ(ift.length(), 20u);
  EXPECT_EQ(ift.count(0), 8u);
  EXPECT_EQ(ift.count(1), 7u);
  EXPECT_EQ(ift.count(2), 3u);
  EXPECT_EQ(ift.count(3), 2u);
  EXPECT_EQ(ift.prob(0), 8.0 / 20.0);
  EXPECT_EQ(ift.prob(1), 7.0 / 20.0);
  EXPECT_EQ(ift.prob(2), 3.0 / 20.0);
  EXPECT_EQ(ift.prob(3), 2.0 / 20.0);
}

TEST_F(PaperExampleTest, QuotedModule1Probability) {
  // Paper: M1 appears in I1 and I2, which execute 15 of 20 cycles -> 0.75.
  const BruteForceActivity bf(ex.rtl, ex.stream);
  EXPECT_EQ(bf.module_prob(0), 0.75);
}

TEST_F(PaperExampleTest, QuotedEnableSignalProbability) {
  // Paper: P(EN{M5,M6}) = P(I1) + P(I3) = 11/20 = 0.55.
  const ActivityAnalyzer an(ex.rtl, ex.stream);
  EXPECT_EQ(an.signal_prob_of_modules(modules(6, {4, 5})), 11.0 / 20.0);
}

TEST_F(PaperExampleTest, QuotedEnableTransitionProbability) {
  // The reconstructed stream toggles EN{M5,M6} 11 times over 19 pairs.
  const ActivityAnalyzer an(ex.rtl, ex.stream);
  EXPECT_EQ(an.transition_prob_of_modules(modules(6, {4, 5})), 11.0 / 19.0);
}

TEST_F(PaperExampleTest, TableDrivenMatchesBruteForceOnAllPairs) {
  const ActivityAnalyzer an(ex.rtl, ex.stream);
  const BruteForceActivity bf(ex.rtl, ex.stream);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      const ModuleSet s = modules(6, {a, b});
      EXPECT_EQ(an.signal_prob_of_modules(s), bf.signal_prob(s));
      EXPECT_EQ(an.transition_prob_of_modules(s), bf.transition_prob(s));
    }
  }
}

TEST_F(PaperExampleTest, ImattRowsCountEveryPair) {
  const Imatt imatt(count_stream(ex.stream, 4));
  std::uint64_t total = 0;
  for (const ImattRow& row : imatt.rows()) total += row.count;
  EXPECT_EQ(imatt.num_pairs(), 19u);
  EXPECT_EQ(total, 19u);
}

TEST_F(PaperExampleTest, Table3ImattRowsAndActivationTags) {
  // Table 3 in full: each occurring pair (in row order), its count over
  // the 19 consecutive pairs, and the tags of M1..M6 (cur used, nxt used).
  struct Row {
    int cur, nxt, count;
    const char* tags[6];
  };
  const Row want[] = {
      {0, 0, 1, {"11", "11", "11", "00", "11", "00"}},
      {0, 1, 4, {"11", "10", "10", "01", "10", "00"}},
      {0, 2, 2, {"10", "11", "10", "00", "11", "01"}},
      {0, 3, 1, {"10", "10", "11", "01", "10", "00"}},
      {1, 0, 4, {"11", "01", "01", "10", "01", "00"}},
      {1, 2, 1, {"10", "01", "00", "10", "01", "01"}},
      {1, 3, 1, {"10", "00", "01", "11", "00", "00"}},
      {2, 0, 2, {"01", "11", "01", "00", "11", "10"}},
      {2, 1, 1, {"01", "10", "00", "01", "10", "10"}},
      {3, 1, 2, {"01", "00", "10", "11", "00", "00"}},
  };
  const char* tag_names[] = {"00", "01", "10", "11"};
  const Imatt imatt(count_stream(ex.stream, 4));
  ASSERT_EQ(imatt.rows().size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const ImattRow& row = imatt.rows()[i];
    EXPECT_EQ(row.cur, want[i].cur) << "row " << i;
    EXPECT_EQ(row.nxt, want[i].nxt) << "row " << i;
    EXPECT_EQ(row.count, static_cast<std::uint64_t>(want[i].count))
        << "row " << i;
    for (int m = 0; m < 6; ++m) {
      EXPECT_STREQ(tag_names[Imatt::activation_tag(ex.rtl, row, m)],
                   want[i].tags[m])
          << "row " << i << " M" << m + 1;
    }
  }
}

TEST_F(PaperExampleTest, ImattActivationTags) {
  const Imatt imatt(count_stream(ex.stream, 4));
  // For the pair (I1, I2): M1 used by both -> tag 11b; M5 used only by I1
  // -> tag 10b; M4 used only by I2 -> tag 01b; M6 by neither -> 00b.
  const ImattRow row{0, 1, 0};
  EXPECT_EQ(Imatt::activation_tag(ex.rtl, row, 0), 0b11);
  EXPECT_EQ(Imatt::activation_tag(ex.rtl, row, 4), 0b10);
  EXPECT_EQ(Imatt::activation_tag(ex.rtl, row, 3), 0b01);
  EXPECT_EQ(Imatt::activation_tag(ex.rtl, row, 5), 0b00);
}

// ------------------------------------------------------------ Ift/Imatt ---

TEST(Ift, CountsSumToTheStreamLength) {
  InstructionStream s{{0, 1, 2, 1, 0, 0, 3}};
  const Ift ift(count_stream(s, 4));
  std::uint64_t total = 0;
  for (const std::uint64_t c : ift.counts()) total += c;
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(ift.prob(0), 3.0 / 7.0);
}

TEST(Ift, EmptyStreamGivesZeros) {
  InstructionStream s;
  const Ift ift(count_stream(s, 3));
  EXPECT_EQ(ift.prob(0), 0.0);
  EXPECT_EQ(ift.prob(2), 0.0);
}

TEST(Imatt, PairProbCounts) {
  InstructionStream s{{0, 1, 0, 1, 1}};
  const Imatt imatt(count_stream(s, 2));
  // Pairs: (0,1) (1,0) (0,1) (1,1) over 4 pairs.
  EXPECT_EQ(imatt.pair_count(0, 1), 2u);
  EXPECT_EQ(imatt.pair_prob(0, 1), 0.5);
  EXPECT_EQ(imatt.pair_prob(1, 0), 0.25);
  EXPECT_EQ(imatt.pair_prob(1, 1), 0.25);
  EXPECT_EQ(imatt.pair_prob(0, 0), 0.0);
}

TEST(Imatt, SingleInstructionStreamHasNoRows) {
  InstructionStream s{{2}};
  const Imatt imatt(count_stream(s, 3));
  EXPECT_TRUE(imatt.rows().empty());
}

TEST(Analyzer, EmptyMaskHasZeroProbabilities) {
  const auto ex = benchdata::paper_example();
  const ActivityAnalyzer an(ex.rtl, ex.stream);
  const ActivationMask empty(4);
  EXPECT_EQ(an.signal_prob(empty), 0.0);
  EXPECT_EQ(an.transition_prob(empty), 0.0);
}

TEST(Analyzer, FullMaskIsAlwaysOn) {
  const auto ex = benchdata::paper_example();
  const ActivityAnalyzer an(ex.rtl, ex.stream);
  ActivationMask all(4);
  for (int i = 0; i < 4; ++i) all.set(i);
  EXPECT_EQ(an.signal_prob(all), 1.0);
  EXPECT_EQ(an.transition_prob(all), 0.0);
}

TEST(Analyzer, SignalProbMonotoneUnderUnion) {
  const auto ex = benchdata::paper_example();
  const ActivityAnalyzer an(ex.rtl, ex.stream);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      const double pa = an.signal_prob(an.module_mask(a));
      const double pu =
          an.signal_prob(an.module_mask(a) | an.module_mask(b));
      EXPECT_GE(pu, pa);
    }
  }
}

TEST(Rtl, MeanUsageFraction) {
  const auto ex = benchdata::paper_example();
  // (4 + 2 + 3 + 2) / (4 * 6) = 11/24.
  EXPECT_NEAR(ex.rtl.mean_usage_fraction(), 11.0 / 24.0, 1e-12);
}

TEST(Ift, AverageActivityWeightsByFrequency) {
  const auto ex = benchdata::paper_example();
  const Ift ift(count_stream(ex.stream, 4));
  // sum count(I)|M(I)| / (B N) = (8*4 + 7*2 + 3*3 + 2*2) / (20*6).
  EXPECT_EQ(ift.average_activity(ex.rtl), 59.0 / 120.0);
}

}  // namespace
}  // namespace gcr::activity
