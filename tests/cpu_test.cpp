#include <gtest/gtest.h>

#include <map>

#include "activity/analyzer.h"
#include "benchdata/rbench.h"
#include "cpu/bridge.h"
#include "cpu/isa.h"
#include "cpu/machine.h"
#include "cpu/program.h"

namespace gcr::cpu {
namespace {

// ------------------------------------------------------------ decode -----

TEST(Isa, EveryOpcodeClocksFetchAndDecode) {
  for (int op = 0; op < kNumOpcodes; ++op) {
    const auto units = units_of(static_cast<Opcode>(op));
    EXPECT_FALSE(units.empty());
    bool fetch = false, decode = false;
    for (const Unit u : units) {
      fetch |= u == Unit::Fetch;
      decode |= u == Unit::Decode;
    }
    EXPECT_TRUE(fetch && decode) << opcode_name(static_cast<Opcode>(op));
  }
}

TEST(Isa, ExecutionUnitsMatchSemantics) {
  const auto has = [](std::span<const Unit> units, Unit u) {
    return std::find(units.begin(), units.end(), u) != units.end();
  };
  EXPECT_TRUE(has(units_of(Opcode::kMul), Unit::Multiplier));
  EXPECT_FALSE(has(units_of(Opcode::kMul), Unit::Divider));
  EXPECT_TRUE(has(units_of(Opcode::kDiv), Unit::Divider));
  EXPECT_TRUE(has(units_of(Opcode::kLd), Unit::LoadStore));
  EXPECT_TRUE(has(units_of(Opcode::kSt), Unit::LoadStore));
  EXPECT_FALSE(has(units_of(Opcode::kSt), Unit::RegWrite));  // no dest reg
  EXPECT_TRUE(has(units_of(Opcode::kBeq), Unit::Branch));
  EXPECT_FALSE(has(units_of(Opcode::kNop), Unit::Alu));
}

// ----------------------------------------------------------- machine -----

TEST(Machine, ArithmeticAndRegisterZero) {
  Assembler a;
  a.li(1, 21).li(2, 2).mul(3, 1, 2);   // r3 = 42
  a.addi(0, 1, 5);                     // write to r0 is discarded
  a.sub(4, 3, 1);                      // r4 = 21
  a.div(5, 3, 2);                      // r5 = 21
  a.div(6, 3, 0);                      // div by zero -> 0
  a.halt();
  Machine m;
  const Trace t = m.run(a.finish());
  EXPECT_TRUE(t.halted);
  EXPECT_EQ(m.reg(3), 42);
  EXPECT_EQ(m.reg(0), 0);
  EXPECT_EQ(m.reg(4), 21);
  EXPECT_EQ(m.reg(5), 21);
  EXPECT_EQ(m.reg(6), 0);
}

TEST(Machine, MemoryAndShifts) {
  Assembler a;
  a.li(1, 100).li(2, 7).st(1, 2, 3);  // mem[103] = 7
  a.ld(3, 1, 3);                      // r3 = 7
  a.shl(4, 3, 4);                     // r4 = 112
  a.shr(5, 4, 3);                     // r5 = 14
  a.xor_(6, 4, 5);                    // r6 = 112 ^ 14
  a.halt();
  Machine m;
  m.run(a.finish());
  EXPECT_EQ(m.mem(103), 7);
  EXPECT_EQ(m.reg(3), 7);
  EXPECT_EQ(m.reg(4), 112);
  EXPECT_EQ(m.reg(5), 14);
  EXPECT_EQ(m.reg(6), 112 ^ 14);
}

TEST(Machine, FibonacciComputesCorrectValue) {
  Machine m;
  const Trace t = m.run(prog_fibonacci(10));
  EXPECT_TRUE(t.halted);
  EXPECT_EQ(m.reg(3), 55);  // fib(10) = 55 (fib(1) = fib(2) = 1)
}

TEST(Machine, MemcpyCopiesData) {
  Machine m;
  for (int i = 0; i < 16; ++i) m.set_mem(i, 100 + i);
  const Trace t = m.run(prog_memcpy(16));
  EXPECT_TRUE(t.halted);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(m.mem(4096 + i), 100 + i);
}

TEST(Machine, DotProductAccumulates) {
  Machine m;
  for (int i = 0; i < 8; ++i) {
    m.set_mem(i, i + 1);
    m.set_mem(4096 + i, 2);
  }
  m.run(prog_dot_product(8));
  EXPECT_EQ(m.reg(7), 2 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

TEST(Machine, BubbleSortSorts) {
  Machine m;
  const int vals[] = {9, 3, 7, 1, 8, 2, 6, 5};
  for (int i = 0; i < 8; ++i) m.set_mem(i, vals[i]);
  const Trace t = m.run(prog_bubble_sort(8));
  EXPECT_TRUE(t.halted);
  for (int i = 0; i + 1 < 8; ++i) EXPECT_LE(m.mem(i), m.mem(i + 1));
}

TEST(Machine, CycleLimitStopsRunaway) {
  Assembler a;
  a.label("spin").jmp("spin");
  Machine m;
  const Trace t = m.run(a.finish(), 500);
  EXPECT_FALSE(t.halted);
  EXPECT_EQ(t.cycles, 500);
}

TEST(Assembler, UndefinedLabelThrows) {
  Assembler a;
  a.jmp("nowhere");
  EXPECT_THROW(a.finish(), std::runtime_error);
}

// ------------------------------------------------------------ kernels ----

TEST(Kernels, DistinctUnitProfiles) {
  // Each kernel should stress its characteristic unit.
  const auto profile = [](const Program& p) {
    const Trace t = run_with_data(p);
    std::map<Unit, double> f;
    for (const Opcode op : t.ops)
      for (const Unit u : units_of(op)) f[u] += 1.0;
    for (auto& [u, v] : f) v /= static_cast<double>(t.ops.size());
    return f;
  };
  auto mem = profile(prog_memcpy(200));
  auto dot = profile(prog_dot_product(200));
  auto srt = profile(prog_bubble_sort(30));
  auto mix = profile(prog_hash_mix(200));
  EXPECT_GT(mem[Unit::LoadStore], 0.25);
  EXPECT_GT(dot[Unit::Multiplier], 0.1);
  EXPECT_GT(srt[Unit::Branch], 0.3);
  EXPECT_GT(mix[Unit::Shifter], 0.15);
  EXPECT_GT(mix[Unit::Divider], 0.05);
}

// ------------------------------------------------------------- bridge ----

TEST(Bridge, FloorplanIsContiguousPartition) {
  const auto rb = benchdata::generate_rbench("r1");
  const UnitFloorplan plan = assign_units(rb.sinks);
  ASSERT_EQ(plan.num_sinks(), 267);
  int total = 0;
  for (int u = 0; u < kNumUnits; ++u) {
    const auto& sinks = plan.unit_sinks[static_cast<std::size_t>(u)];
    EXPECT_FALSE(sinks.empty()) << unit_name(static_cast<Unit>(u));
    total += static_cast<int>(sinks.size());
    for (const int s : sinks)
      EXPECT_EQ(plan.unit_of_sink[static_cast<std::size_t>(s)], u);
  }
  EXPECT_EQ(total, 267);
  // Weighted sizes: fetch (w=2) about twice branch (w=1).
  const auto size_of = [&](Unit u) {
    return plan.unit_sinks[static_cast<std::size_t>(static_cast<int>(u))]
        .size();
  };
  EXPECT_GT(size_of(Unit::Fetch), 1.4 * size_of(Unit::Branch));
}

TEST(Bridge, RtlMatchesDecodeTable) {
  const auto rb = benchdata::generate_rbench("r1");
  const UnitFloorplan plan = assign_units(rb.sinks);
  const activity::RtlDescription rtl = make_rtl(plan);
  EXPECT_EQ(rtl.num_instructions(), kNumOpcodes);
  EXPECT_EQ(rtl.num_modules(), 267);
  // A multiplier sink is used by kMul but not by kAdd.
  const int mul_sink =
      plan.unit_sinks[static_cast<int>(Unit::Multiplier)].front();
  EXPECT_TRUE(rtl.uses(static_cast<int>(Opcode::kMul), mul_sink));
  EXPECT_FALSE(rtl.uses(static_cast<int>(Opcode::kAdd), mul_sink));
  // Every sink is clocked by at least one opcode (all units reachable).
  for (int s = 0; s < 267; ++s) {
    bool used = false;
    for (int op = 0; op < kNumOpcodes && !used; ++op) used = rtl.uses(op, s);
    EXPECT_TRUE(used) << "sink " << s;
  }
}

TEST(Bridge, MultiprogramStreamHasRequestedLengthAndAllKernels) {
  const activity::InstructionStream s = multiprogram_stream(5000);
  EXPECT_EQ(s.length(), 5000);
  for (const int op : s.seq) {
    EXPECT_GE(op, 0);
    EXPECT_LT(op, kNumOpcodes);
  }
  // The mix must include memory traffic, multiplies and branches.
  std::map<int, int> hist;
  for (const int op : s.seq) ++hist[op];
  EXPECT_GT(hist[static_cast<int>(Opcode::kLd)], 0);
  EXPECT_GT(hist[static_cast<int>(Opcode::kMul)], 0);
  EXPECT_GT(hist[static_cast<int>(Opcode::kBeq)], 0);
}

TEST(Bridge, TraceDrivesActivityEngine) {
  const auto rb = benchdata::generate_rbench("r1");
  const UnitFloorplan plan = assign_units(rb.sinks);
  const activity::RtlDescription rtl = make_rtl(plan);
  // Long enough to cycle through every kernel (hash_mix supplies the divs).
  const activity::InstructionStream stream = multiprogram_stream(20000);
  const activity::ActivityAnalyzer an(rtl, stream);
  // Fetch sinks clock every cycle; divider sinks only on div.
  const int fetch_sink =
      plan.unit_sinks[static_cast<int>(Unit::Fetch)].front();
  const int div_sink =
      plan.unit_sinks[static_cast<int>(Unit::Divider)].front();
  EXPECT_EQ(an.signal_prob(an.module_mask(fetch_sink)), 1.0);
  const double p_div = an.signal_prob(an.module_mask(div_sink));
  EXPECT_GT(p_div, 0.0);
  EXPECT_LT(p_div, 0.2);
}

}  // namespace
}  // namespace gcr::cpu
