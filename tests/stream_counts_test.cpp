#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "activity/analyzer.h"
#include "activity/brute_force.h"
#include "activity/counts.h"
#include "activity/ift.h"
#include "activity/imatt.h"
#include "core/router.h"
#include "guard/validate.h"
#include "verify/generator.h"

/// \file stream_counts_test.cpp
/// The IFT and IMATT are built from one count of the stream
/// (activity/counts.h). These tests hold the counted tables to a plain
/// per-cycle integer count (EXPECT_EQ on counts, and on every probability
/// as one division of a count), and hold the count's out-of-range summary
/// to a plain scan -- including the router, which validates from its
/// analyzer's summary instead of rescanning the stream.

namespace gcr::activity {
namespace {

/// The oracle: issue counts and consecutive-pair counts, one cycle at a
/// time. An id outside [0, k) is counted in the summary fields and left out
/// of the tables, with both pairs it belongs to.
struct PlainCounts {
  std::vector<std::uint64_t> instr;
  std::vector<std::uint64_t> pairs;  ///< K*K, [cur * K + nxt]
  int bad{0};
  int first_cycle{0};
  InstrId first_id{0};
};

PlainCounts plain_counts(const InstructionStream& stream, int k) {
  PlainCounts c{std::vector<std::uint64_t>(static_cast<std::size_t>(k), 0),
                std::vector<std::uint64_t>(static_cast<std::size_t>(k) * k, 0)};
  const auto ok = [k](InstrId id) { return id >= 0 && id < k; };
  for (std::size_t t = 0; t < stream.seq.size(); ++t) {
    const InstrId id = stream.seq[t];
    if (!ok(id)) {
      if (c.bad++ == 0) {
        c.first_cycle = static_cast<int>(t);
        c.first_id = id;
      }
      continue;
    }
    ++c.instr.at(static_cast<std::size_t>(id));
    if (t > 0 && ok(stream.seq[t - 1]))
      ++c.pairs.at(static_cast<std::size_t>(stream.seq[t - 1]) * k + id);
  }
  return c;
}

/// count_stream and scan_stream_ids against the oracle, bad ids included.
void expect_counts_match_plain(const InstructionStream& s, int k) {
  const PlainCounts want = plain_counts(s, k);
  const StreamCounts got = count_stream(s, k);
  EXPECT_EQ(got.length, s.length());
  EXPECT_EQ(std::vector<std::uint64_t>(got.instr.begin(), got.instr.end()),
            want.instr);
  EXPECT_EQ(std::vector<std::uint64_t>(got.pairs.begin(), got.pairs.end()),
            want.pairs);
  EXPECT_EQ(got.ids.bad, want.bad);
  EXPECT_EQ(got.ids.first_cycle, want.first_cycle);
  EXPECT_EQ(got.ids.first_id, want.first_id);

  const StreamIdSummary scanned = scan_stream_ids(s, k);
  EXPECT_EQ(scanned.bad, want.bad);
  EXPECT_EQ(scanned.first_cycle, want.first_cycle);
  EXPECT_EQ(scanned.first_id, want.first_id);
}

enum class Shape { Uniform, Local, Constant };

/// Seeded stream over [0, k): uniform ids, a stream that repeats its
/// previous id with probability 0.85, or one id throughout.
InstructionStream make_stream(Shape shape, int k, int len, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> id(0, k - 1);
  std::bernoulli_distribution stay(0.85);
  InstructionStream s;
  s.seq.reserve(static_cast<std::size_t>(len));
  const int constant = id(rng);
  for (int t = 0; t < len; ++t) {
    switch (shape) {
      case Shape::Uniform: s.seq.push_back(id(rng)); break;
      case Shape::Local:
        s.seq.push_back(t > 0 && stay(rng) ? s.seq.back() : id(rng));
        break;
      case Shape::Constant: s.seq.push_back(constant); break;
    }
  }
  return s;
}

void expect_tables_exact(const InstructionStream& s, int k) {
  const StreamCounts counts = count_stream(s, k);
  EXPECT_EQ(counts.length, s.length());
  EXPECT_EQ(counts.ids.bad, 0);
  const PlainCounts want = plain_counts(s, k);
  const auto b = static_cast<double>(s.length());

  const Ift ift(counts);
  ASSERT_EQ(ift.num_instructions(), k);
  EXPECT_EQ(ift.length(), static_cast<std::uint64_t>(s.length()));
  for (InstrId i = 0; i < k; ++i) {
    EXPECT_EQ(ift.count(i), want.instr[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(ift.prob(i),
              s.length() == 0 ? 0.0 : ift.count(i) / b) << i;
  }

  const Imatt imatt(counts);
  EXPECT_EQ(imatt.num_pairs(),
            s.length() < 2 ? 0u : static_cast<std::uint64_t>(s.length()) - 1);
  std::size_t nonzero = 0;
  for (InstrId a = 0; a < k; ++a) {
    for (InstrId bi = 0; bi < k; ++bi) {
      const std::uint64_t c = want.pairs[static_cast<std::size_t>(a) * k + bi];
      EXPECT_EQ(imatt.pair_count(a, bi), c) << a << "->" << bi;
      EXPECT_EQ(imatt.pair_prob(a, bi), c == 0 ? 0.0 : c / (b - 1.0))
          << a << "->" << bi;
      if (c > 0) ++nonzero;
    }
  }
  // Rows: the observed pairs in row-major order, with the same counts.
  ASSERT_EQ(imatt.rows().size(), nonzero);
  std::size_t r = 0;
  for (InstrId a = 0; a < k; ++a) {
    for (InstrId bi = 0; bi < k; ++bi) {
      const std::uint64_t c = want.pairs[static_cast<std::size_t>(a) * k + bi];
      if (c == 0) continue;
      const ImattRow& row = imatt.rows()[r++];
      EXPECT_EQ(row.cur, a);
      EXPECT_EQ(row.nxt, bi);
      EXPECT_EQ(row.count, c);
    }
  }
}

TEST(StreamCounts, TablesEqualPlainIntegerCounts) {
  std::uint64_t seed = 1;
  const Shape shapes[] = {Shape::Uniform, Shape::Local, Shape::Constant};
  for (const int k : {1, 2, 64, 128}) {
    for (const int len : {0, 1, 2, 3, 17, 1000, 100000}) {
      for (const Shape shape : shapes) {
        SCOPED_TRACE("k=" + std::to_string(k) + " len=" + std::to_string(len) +
                     " shape=" + std::to_string(static_cast<int>(shape)));
        expect_tables_exact(make_stream(shape, k, len, ++seed), k);
      }
    }
  }
}

// Adding 1/(B-1) once per occurrence -- how the IMATT used to be summed --
// is not count/(B-1) in the last bit: with 1000 pairs, ten additions of
// 0.001 give 0.010000000000000002, not 0.01. The tables and the analyzer
// divide the count once, as the brute-force rescan does.
TEST(StreamCounts, PairProbabilityIsOneDivisionOfTheCount) {
  InstructionStream s;
  for (int t = 0; t < 1001; ++t) s.seq.push_back(t < 20 ? t % 2 : 2);
  // Pairs (0,1) x10, (1,0) x9, (1,2) x1, (2,2) x980 over 1000 pairs.
  double summed = 0.0;
  for (int i = 0; i < 10; ++i) summed += 1.0 / 1000.0;
  ASSERT_NE(summed, 10.0 / 1000.0);

  const Imatt imatt(count_stream(s, 3));
  EXPECT_EQ(imatt.pair_count(0, 1), 10u);
  EXPECT_EQ(imatt.pair_prob(0, 1), 10.0 / 1000.0);

  // Instruction 0 alone clocks module 0: its enable toggles on every
  // (0,1) and (1,0) pair, 19 times.
  RtlDescription rtl(3, 2);
  rtl.add_use(0, 0);
  rtl.add_use(1, 1);
  rtl.add_use(2, 1);
  const ActivityAnalyzer an(rtl, s);
  const BruteForceActivity bf(rtl, s);
  ModuleSet m0(2);
  m0.set(0);
  EXPECT_EQ(an.transition_prob_of_modules(m0), 19.0 / 1000.0);
  EXPECT_EQ(bf.transition_prob(m0), 19.0 / 1000.0);
  EXPECT_EQ(an.signal_prob_of_modules(m0), 10.0 / 1001.0);
  EXPECT_EQ(bf.signal_prob(m0), 10.0 / 1001.0);
}

TEST(StreamCounts, CountsOneIssueAndOnePairPerCycle) {
  const InstructionStream s{{0, 1, 0, 1, 1}};
  const StreamCounts c = count_stream(s, 2);
  EXPECT_EQ(c.instr, (std::vector<std::uint32_t>{2, 3}));
  // (0,1) x2, (1,0) x1, (1,1) x1.
  EXPECT_EQ(c.pairs, (std::vector<std::uint32_t>{0, 2, 1, 1}));
}

// ----------------------------------------------------- out-of-range ids --

TEST(StreamCounts, BadIdSummaryMatchesPlainScanAndSkipsTheirPairs) {
  std::mt19937_64 rng(2026);
  const std::vector<InstrId> bad_values = {-1, INT_MIN, INT_MAX};
  for (const int k : {1, 2, 64, 128, 200}) {
    for (const int len : {1, 2, 17, 1000, 100000}) {
      InstructionStream s = make_stream(Shape::Local, k, len, rng());
      std::uniform_int_distribution<int> where(0, len - 1);
      const int n_bad = 1 + len / 500;
      for (int j = 0; j < n_bad; ++j) {
        const std::size_t t = static_cast<std::size_t>(where(rng));
        s.seq[t] = j % 4 == 3 ? k + j : bad_values[j % bad_values.size()];
      }
      SCOPED_TRACE("k=" + std::to_string(k) + " len=" + std::to_string(len));

      expect_counts_match_plain(s, k);
    }
  }
}

// The count reads four cycles at a time, and the range check reduces eight
// lanes before it walks, so a bad id is placed at every cycle of streams
// shorter than, equal to and just past those blocks. K = 200 is above the
// largest K that gets four tables, so it runs the one-table loop.
TEST(StreamCounts, ShortStreamsWithBadIdsMatchPlainCountAtEveryCycle) {
  std::uint64_t seed = 100;
  for (const int k : {1, 2, 3, 64, 200}) {
    const std::vector<InstrId> bad_values = {-1, k, INT_MAX, INT_MIN, k + 1};
    for (int len = 0; len <= 13; ++len) {
      SCOPED_TRACE("k=" + std::to_string(k) + " len=" + std::to_string(len));
      const InstructionStream clean = make_stream(Shape::Local, k, len, ++seed);
      expect_counts_match_plain(clean, k);
      const auto bad_at = [&](std::initializer_list<int> cycles) {
        InstructionStream s = clean;
        for (const int t : cycles)
          s.seq[static_cast<std::size_t>(t)] =
              bad_values[static_cast<std::size_t>(t) % bad_values.size()];
        return s;
      };
      for (int t = 0; t < len; ++t) {
        SCOPED_TRACE("bad at " + std::to_string(t));
        expect_counts_match_plain(bad_at({t}), k);  // t = len-1: last cycle
        if (t + 1 < len) expect_counts_match_plain(bad_at({t, t + 1}), k);
      }
      InstructionStream all_bad = clean;
      for (std::size_t t = 0; t < all_bad.seq.size(); ++t)
        all_bad.seq[t] = bad_values[t % bad_values.size()];
      expect_counts_match_plain(all_bad, k);
    }
  }
}

// One id throughout bumps the same pair and issue counters every cycle: the
// chain the count's interleaved tables break. A length that is not a
// multiple of 4 leaves a tail for the per-cycle step.
TEST(StreamCounts, ConstantStreamCountsEverySelfPair) {
  for (const int k : {1, 64, 200}) {
    const int len = 100003;
    const InstructionStream s = make_stream(Shape::Constant, k, len, 7);
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_counts_match_plain(s, k);
    const StreamCounts c = count_stream(s, k);
    const auto id = static_cast<std::size_t>(s.seq.front());
    EXPECT_EQ(c.instr[id], static_cast<std::uint32_t>(len));
    EXPECT_EQ(c.pairs[id * static_cast<std::size_t>(k) + id],
              static_cast<std::uint32_t>(len - 1));
  }
}

TEST(StreamCounts, AnalyzerExposesTheSummaryWithoutThrowing) {
  RtlDescription rtl(2, 3);
  rtl.add_use(0, 0);
  rtl.add_use(1, 2);
  const InstructionStream s{{0, 1, 0, 1, 5, 1, 0}};
  const ActivityAnalyzer an(rtl, s);
  EXPECT_EQ(an.stream_ids().bad, 1);
  EXPECT_EQ(an.stream_ids().first_cycle, 4);
  EXPECT_EQ(an.stream_ids().first_id, 5);
}

// The router validates from its analyzer's summary; the Diag must be the
// one lenient validate_design produces by scanning the stream itself.
TEST(StreamCounts, RouterDiagEqualsLenientValidation) {
  verify::DesignSpec spec;
  spec.seed = 5;
  spec.num_sinks = 10;
  core::Design d = verify::generate_design(spec);
  d.sink_module.assign(d.sinks.size(), 0);
  d.sink_module[3] = d.rtl.num_modules() + 2;  // GCR_E_MODULE_MISMATCH
  d.stream.seq[7] = d.rtl.num_instructions();  // GCR_E_STREAM_ID
  d.stream.seq[9] = -4;
  d.sinks[1].cap = 0.0;                        // a lenient-mode warning

  guard::Diag want;
  guard::ValidateOptions vopts;
  vopts.strict = false;
  EXPECT_FALSE(guard::validate_design(d, want, vopts));

  const core::GatedClockRouter router(d);
  const core::RouteOutcome out = router.route_guarded({});
  EXPECT_FALSE(out.result.has_value());
  ASSERT_EQ(out.diag.entries().size(), want.entries().size());
  for (std::size_t i = 0; i < want.entries().size(); ++i) {
    EXPECT_EQ(out.diag.entries()[i].severity, want.entries()[i].severity);
    EXPECT_EQ(out.diag.entries()[i].to_string(), want.entries()[i].to_string());
  }
  EXPECT_TRUE(out.diag.has_code(guard::Code::ModuleMismatch));
  EXPECT_TRUE(out.diag.has_code(guard::Code::StreamId));
  EXPECT_EQ(out.diag.error_count(), want.error_count());
}

}  // namespace
}  // namespace gcr::activity
