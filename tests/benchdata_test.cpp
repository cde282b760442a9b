#include <gtest/gtest.h>

#include "activity/brute_force.h"
#include "activity/ift.h"
#include "benchdata/rbench.h"
#include "benchdata/workload.h"

namespace gcr::benchdata {
namespace {

TEST(RBench, PublishedSinkCounts) {
  EXPECT_EQ(rbench_spec("r1").num_sinks, 267);
  EXPECT_EQ(rbench_spec("r2").num_sinks, 598);
  EXPECT_EQ(rbench_spec("r3").num_sinks, 862);
  EXPECT_EQ(rbench_spec("r4").num_sinks, 1903);
  EXPECT_EQ(rbench_spec("r5").num_sinks, 3101);
  EXPECT_EQ(rbench_specs().size(), 5u);
}

TEST(RBench, UnknownNameThrows) {
  EXPECT_THROW(static_cast<void>(rbench_spec("r9")), std::out_of_range);
}

TEST(RBench, GenerationIsDeterministic) {
  const RBench a = generate_rbench("r1");
  const RBench b = generate_rbench("r1");
  ASSERT_EQ(a.sinks.size(), b.sinks.size());
  for (std::size_t i = 0; i < a.sinks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sinks[i].loc.x, b.sinks[i].loc.x);
    EXPECT_DOUBLE_EQ(a.sinks[i].cap, b.sinks[i].cap);
  }
}

TEST(RBench, SinksInsideDieWithValidCaps) {
  for (const auto& spec : rbench_specs()) {
    const RBench b = generate_rbench(spec);
    EXPECT_EQ(static_cast<int>(b.sinks.size()), spec.num_sinks);
    for (const auto& s : b.sinks) {
      EXPECT_TRUE(b.die.contains(s.loc));
      EXPECT_GE(s.cap, spec.cap_lo);
      EXPECT_LE(s.cap, spec.cap_hi);
    }
  }
}

TEST(Workload, HitsTargetActivity) {
  const RBench bench = generate_rbench("r1");
  for (const double target : {0.1, 0.4, 0.8}) {
    WorkloadSpec spec;
    spec.target_activity = target;
    spec.stream_length = 8000;
    spec.seed = 99;
    const Workload wl = generate_workload(spec, bench.sinks, bench.die);
    const activity::Ift ift(
        activity::count_stream(wl.stream, wl.rtl.num_instructions()));
    // Ave(M(I)) should track the requested activity within sampling noise.
    EXPECT_NEAR(ift.average_activity(wl.rtl), target, 0.12) << target;
  }
}

TEST(Workload, StreamLengthAndRange) {
  const RBench bench = generate_rbench("r1");
  WorkloadSpec spec;
  spec.stream_length = 1234;
  const Workload wl = generate_workload(spec, bench.sinks, bench.die);
  EXPECT_EQ(wl.stream.length(), 1234);
  for (const int i : wl.stream.seq) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, spec.num_instructions);
  }
}

TEST(Workload, EveryInstructionUsesAtLeastOneModule) {
  const RBench bench = generate_rbench("r2");
  WorkloadSpec spec;
  spec.target_activity = 0.02;  // so low that empty draws are likely
  spec.seed = 7;
  const Workload wl = generate_workload(spec, bench.sinks, bench.die);
  for (int i = 0; i < wl.rtl.num_instructions(); ++i)
    EXPECT_TRUE(wl.rtl.module_set(i).any()) << "instruction " << i;
}

TEST(Workload, LocalityLowersTransitionRates) {
  const RBench bench = generate_rbench("r1");
  WorkloadSpec sticky;
  sticky.locality = 0.95;
  sticky.seed = 5;
  WorkloadSpec jumpy = sticky;
  jumpy.locality = 0.0;
  const Workload ws = generate_workload(sticky, bench.sinks, bench.die);
  const Workload wj = generate_workload(jumpy, bench.sinks, bench.die);
  const activity::BruteForceActivity bs(ws.rtl, ws.stream);
  const activity::BruteForceActivity bj(wj.rtl, wj.stream);
  // Average per-module transition rate must drop with locality.
  double ts = 0.0, tj = 0.0;
  const int n = ws.rtl.num_modules();
  for (int m = 0; m < n; ++m) {
    ts += bs.module_prob(m) > 0 ? bs.transition_prob([&] {
      activity::ModuleSet s(n);
      s.set(m);
      return s;
    }()) : 0.0;
    tj += bj.module_prob(m) > 0 ? bj.transition_prob([&] {
      activity::ModuleSet s(n);
      s.set(m);
      return s;
    }()) : 0.0;
  }
  EXPECT_LT(ts, tj);
}

TEST(Workload, DeterministicForFixedSeed) {
  const RBench bench = generate_rbench("r1");
  WorkloadSpec spec;
  spec.seed = 31;
  const Workload a = generate_workload(spec, bench.sinks, bench.die);
  const Workload b = generate_workload(spec, bench.sinks, bench.die);
  EXPECT_EQ(a.stream.seq, b.stream.seq);
  for (int i = 0; i < a.rtl.num_instructions(); ++i)
    EXPECT_EQ(a.rtl.module_set(i), b.rtl.module_set(i));
}

}  // namespace
}  // namespace gcr::benchdata
