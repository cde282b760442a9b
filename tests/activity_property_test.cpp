#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>

#include "activity/analyzer.h"
#include "activity/brute_force.h"
#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "test_seed.h"

/// Property suite: on randomly generated workloads, the table-driven
/// activity engine (one stream scan, then O(K)/O(K^2) queries) must agree
/// exactly with the brute-force oracle (full stream rescan per query) for
/// every module set we throw at it -- including sets larger than one word,
/// empty sets, and the all-modules set.

namespace gcr::activity {
namespace {

struct Params {
  int num_instructions;
  int num_modules;
  int stream_length;
  double activity;
  std::uint64_t seed;
};

class ActivityAgreement : public ::testing::TestWithParam<Params> {};

TEST_P(ActivityAgreement, TableDrivenEqualsBruteForce) {
  const Params p = GetParam();

  // Synthetic sinks only seed the spatial clustering of the generator.
  benchdata::RBenchSpec spec{"t", p.num_modules, 1000.0, 0.01, 0.02, p.seed};
  const benchdata::RBench bench = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = p.num_instructions;
  wspec.num_clusters = 4;
  wspec.target_activity = p.activity;
  wspec.stream_length = p.stream_length;
  wspec.seed = p.seed;
  const benchdata::Workload wl =
      benchdata::generate_workload(wspec, bench.sinks, bench.die);

  const ActivityAnalyzer an(wl.rtl, wl.stream);
  const BruteForceActivity bf(wl.rtl, wl.stream);

  std::mt19937_64 rng(p.seed ^ 0xabcdef);
  std::uniform_int_distribution<int> pick(0, p.num_modules - 1);
  std::uniform_int_distribution<int> size(1, p.num_modules);

  for (int trial = 0; trial < 50; ++trial) {
    ModuleSet s(p.num_modules);
    const int k = size(rng);
    for (int j = 0; j < k; ++j) s.set(pick(rng));
    ASSERT_EQ(an.signal_prob_of_modules(s), bf.signal_prob(s))
        << "trial " << trial;
    ASSERT_EQ(an.transition_prob_of_modules(s), bf.transition_prob(s))
        << "trial " << trial;
  }

  // Edge cases: empty and full sets.
  ModuleSet none(p.num_modules);
  EXPECT_EQ(an.signal_prob_of_modules(none), bf.signal_prob(none));
  EXPECT_EQ(an.transition_prob_of_modules(none), bf.transition_prob(none));
  ModuleSet all(p.num_modules);
  for (int m = 0; m < p.num_modules; ++m) all.set(m);
  EXPECT_EQ(an.signal_prob_of_modules(all), bf.signal_prob(all));
  EXPECT_EQ(an.transition_prob_of_modules(all), bf.transition_prob(all));
}

TEST_P(ActivityAgreement, TransitionProbabilityBounds) {
  const Params p = GetParam();
  benchdata::RBenchSpec spec{"t", p.num_modules, 1000.0, 0.01, 0.02, p.seed};
  const benchdata::RBench bench = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = p.num_instructions;
  wspec.target_activity = p.activity;
  wspec.stream_length = p.stream_length;
  wspec.seed = p.seed + 1;
  const benchdata::Workload wl =
      benchdata::generate_workload(wspec, bench.sinks, bench.die);
  const ActivityAnalyzer an(wl.rtl, wl.stream);

  for (int m = 0; m < p.num_modules; ++m) {
    const auto& mask = an.module_mask(m);
    const double sp = an.signal_prob(mask);
    const double tp = an.transition_prob(mask);
    EXPECT_GE(sp, 0.0);
    EXPECT_LE(sp, 1.0);
    EXPECT_GE(tp, 0.0);
    EXPECT_LE(tp, 1.0);
    // A 0/1 signal toggles once between runs, and at most every other run
    // is of its rarer state, so in counts: toggles <= 2 min(on, B - on).
    const auto b = static_cast<double>(p.stream_length);
    const double on = std::round(sp * b);
    EXPECT_LE(std::round(tp * (b - 1.0)), 2.0 * std::min(on, b - on))
        << "module " << m;
  }
}

/// GCR_TEST_SEED reseeds the whole sweep (shapes stay fixed, the generator
/// seed is replaced), and the seed lands in every test's parameter name.
std::vector<Params> sweep_params() {
  std::vector<Params> base = {
      Params{4, 6, 20, 0.4, 1},       // paper-scale
      Params{8, 16, 500, 0.2, 2},     // small
      Params{16, 40, 2000, 0.4, 3},   // medium
      Params{32, 64, 5000, 0.6, 4},   // one-word mask boundary
      Params{64, 100, 3000, 0.3, 5},  // K == 64 exactly
      Params{70, 90, 3000, 0.5, 6},   // K > 64: multi-word masks
      Params{128, 30, 4000, 0.8, 7},  // many instructions, high activity
      Params{5, 200, 1000, 0.1, 8},   // many modules, low activity
  };
  if (const char* env = std::getenv("GCR_TEST_SEED")) {
    const std::uint64_t s = std::strtoull(env, nullptr, 10);
    for (std::size_t i = 0; i < base.size(); ++i) base[i].seed = s + i;
  }
  return base;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ActivityAgreement,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& info) {
                           return "K" +
                                  std::to_string(info.param.num_instructions) +
                                  "_seed_" + std::to_string(info.param.seed);
                         });

/// A small hand-built RTL for the degenerate-input tests below: module 0 is
/// used by every instruction (constant-1 activity tag), module 4 by none
/// (constant-0), the rest varies.
RtlDescription tiny_rtl() {
  RtlDescription rtl(3, 5);
  for (InstrId i = 0; i < 3; ++i) rtl.add_use(i, 0);
  rtl.add_use(0, 1);
  rtl.add_use(1, 2);
  rtl.add_use(2, 1);
  rtl.add_use(2, 3);
  return rtl;
}

std::vector<ModuleSet> all_singletons_and_extremes(int n) {
  std::vector<ModuleSet> sets;
  sets.emplace_back(n);  // empty
  ModuleSet all(n);
  for (int m = 0; m < n; ++m) {
    ModuleSet s(n);
    s.set(m);
    sets.push_back(s);
    all.set(m);
  }
  sets.push_back(all);
  return sets;
}

TEST(ActivityEdgeCases, EmptyStreamIsAllZeros) {
  const RtlDescription rtl = tiny_rtl();
  const InstructionStream empty{};
  const ActivityAnalyzer an(rtl, empty);
  const BruteForceActivity bf(rtl, empty);
  for (const ModuleSet& s : all_singletons_and_extremes(rtl.num_modules())) {
    EXPECT_EQ(an.signal_prob_of_modules(s), 0.0);
    EXPECT_EQ(an.transition_prob_of_modules(s), 0.0);
    EXPECT_EQ(bf.signal_prob(s), 0.0);
    EXPECT_EQ(bf.transition_prob(s), 0.0);
  }
}

TEST(ActivityEdgeCases, SingleInstructionStreamHasNoTransitions) {
  const RtlDescription rtl = tiny_rtl();
  const InstructionStream one{{1}};
  const ActivityAnalyzer an(rtl, one);
  const BruteForceActivity bf(rtl, one);
  for (const ModuleSet& s : all_singletons_and_extremes(rtl.num_modules())) {
    // Signal probability is the 0/1 indicator of instruction 1 touching s;
    // with a single cycle there is no instruction pair to transition over.
    const double expect = rtl.activates(1, s) ? 1.0 : 0.0;
    EXPECT_EQ(an.signal_prob_of_modules(s), expect);
    EXPECT_EQ(bf.signal_prob(s), expect);
    EXPECT_EQ(an.transition_prob_of_modules(s), 0.0);
    EXPECT_EQ(bf.transition_prob(s), 0.0);
  }
}

TEST(ActivityEdgeCases, ConstantActivityModules) {
  const RtlDescription rtl = tiny_rtl();
  InstructionStream stream;
  std::mt19937_64 rng(test::fuzz_seeds({99}).front());
  for (int c = 0; c < 400; ++c) {
    stream.seq.push_back(static_cast<InstrId>(rng() % 3));
  }
  const ActivityAnalyzer an(rtl, stream);
  const BruteForceActivity bf(rtl, stream);

  // Module 0 is clocked by every instruction: enable stuck at 1, never
  // toggles. Module 4 is clocked by none: stuck at 0.
  ModuleSet always(rtl.num_modules());
  always.set(0);
  EXPECT_EQ(an.signal_prob_of_modules(always), 1.0);
  EXPECT_EQ(an.transition_prob_of_modules(always), 0.0);
  EXPECT_EQ(bf.signal_prob(always), 1.0);
  EXPECT_EQ(bf.transition_prob(always), 0.0);

  ModuleSet never(rtl.num_modules());
  never.set(4);
  EXPECT_EQ(an.signal_prob_of_modules(never), 0.0);
  EXPECT_EQ(an.transition_prob_of_modules(never), 0.0);
  EXPECT_EQ(bf.signal_prob(never), 0.0);
  EXPECT_EQ(bf.transition_prob(never), 0.0);

  // Any set containing the always-on module inherits its constant enable.
  for (const ModuleSet& s : all_singletons_and_extremes(rtl.num_modules())) {
    ModuleSet with = s;
    with.set(0);
    EXPECT_EQ(an.signal_prob_of_modules(with), 1.0);
    EXPECT_EQ(an.transition_prob_of_modules(with), 0.0);
  }
}

TEST(ActivityEdgeCases, EmptyAndFullModuleSetsAgreeWithOracle) {
  const RtlDescription rtl = tiny_rtl();
  InstructionStream stream;
  std::mt19937_64 rng(test::fuzz_seeds({7}).front());
  for (int c = 0; c < 257; ++c) {
    stream.seq.push_back(static_cast<InstrId>(rng() % 3));
  }
  const ActivityAnalyzer an(rtl, stream);
  const BruteForceActivity bf(rtl, stream);

  const ModuleSet none(rtl.num_modules());
  EXPECT_EQ(an.signal_prob_of_modules(none), 0.0);
  EXPECT_EQ(an.transition_prob_of_modules(none), 0.0);
  EXPECT_EQ(bf.signal_prob(none), 0.0);

  ModuleSet all(rtl.num_modules());
  for (int m = 0; m < rtl.num_modules(); ++m) all.set(m);
  // Every instruction of tiny_rtl clocks module 0, so the root enable of
  // the all-modules set is constantly on.
  EXPECT_EQ(an.signal_prob_of_modules(all), 1.0);
  EXPECT_EQ(bf.signal_prob(all), 1.0);
  EXPECT_EQ(an.transition_prob_of_modules(all), bf.transition_prob(all));
}

}  // namespace
}  // namespace gcr::activity
