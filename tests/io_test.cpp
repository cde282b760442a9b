#include <gtest/gtest.h>

#include <climits>
#include <iomanip>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "benchdata/paper_example.h"
#include "benchdata/rbench.h"
#include "clocktree/embed.h"
#include "cts/greedy.h"
#include "gating/controller.h"
#include "guard/lexer.h"
#include "io/delta_io.h"
#include "io/reqs_io.h"
#include "io/svg.h"
#include "io/text_io.h"

namespace gcr::io {
namespace {

TEST(TextIo, SinksRoundTrip) {
  const auto bench = benchdata::generate_rbench("r1");
  std::stringstream ss;
  write_sinks(ss, bench.die, bench.sinks);
  const SinksFile back = read_sinks(ss);
  ASSERT_EQ(back.sinks.size(), bench.sinks.size());
  EXPECT_DOUBLE_EQ(back.die.xhi, bench.die.xhi);
  for (std::size_t i = 0; i < bench.sinks.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.sinks[i].loc.x, bench.sinks[i].loc.x);
    EXPECT_DOUBLE_EQ(back.sinks[i].loc.y, bench.sinks[i].loc.y);
    EXPECT_DOUBLE_EQ(back.sinks[i].cap, bench.sinks[i].cap);
  }
}

TEST(TextIo, SinksRejectsMissingHeader) {
  std::stringstream ss("1 2 3\n");
  EXPECT_THROW(read_sinks(ss), std::runtime_error);
}

TEST(TextIo, SinksDuplicateFindingsKeepTheirLineAndOrder) {
  // A three-way duplicate (lines 3, 6 and 10, all outside the die, so each
  // copy has a finding before its duplicate one), a 0 / -0 pair (lines 4
  // and 9) and two rejected lines between them. Every copy names the line
  // of the first sink there, and the findings keep line order (pinned to
  // the output of the reader's earlier map-based finder).
  std::istringstream is(
      "die 0 0 10 10\n"
      "# x y cap\n"
      "12 3 0.01\n"
      "0 4 0.01\n"
      "1 2\n"
      "12 3 0.02\n"
      "nan 1 0.01\n"
      "5 5 0.01\n"
      "-0 4 0.01\n"
      "12 3 0.03\n");
  guard::Diag diag;
  EXPECT_FALSE(read_sinks(is, diag, "dup.sinks").has_value());
  std::vector<std::string> got;
  for (const guard::Status& s : diag.entries()) got.push_back(s.to_string());
  const std::vector<std::string> want = {
      "dup.sinks:3:1: error GCR_E_OUT_OF_DIE: sink lies outside the die area",
      "dup.sinks:5:4: error GCR_E_PARSE: malformed sink line (need 'x y cap')",
      "dup.sinks:6:1: error GCR_E_OUT_OF_DIE: sink lies outside the die area",
      "dup.sinks:6:1: error GCR_E_DUPLICATE: duplicate sink coordinate (first "
      "at line 3)",
      "dup.sinks:7:1: error GCR_E_NONFINITE: sink coordinate is NaN, infinite "
      "or denormal",
      "dup.sinks:9:1: error GCR_E_DUPLICATE: duplicate sink coordinate (first "
      "at line 4)",
      "dup.sinks:10:1: error GCR_E_OUT_OF_DIE: sink lies outside the die area",
      "dup.sinks:10:1: error GCR_E_DUPLICATE: duplicate sink coordinate (first "
      "at line 3)",
  };
  EXPECT_EQ(got, want) << ::testing::PrintToString(got);
}

TEST(TextIo, StreamRoundTrip) {
  const auto ex = benchdata::paper_example();
  std::stringstream ss;
  write_stream(ss, ex.stream);
  const activity::InstructionStream back = read_stream(ss);
  EXPECT_EQ(back.seq, ex.stream.seq);
}

TEST(TextIo, StreamIgnoresComments) {
  std::stringstream ss("# header\n1 2 # trailing\n3\n");
  const activity::InstructionStream s = read_stream(ss);
  EXPECT_EQ(s.seq, (std::vector<int>{1, 2, 3}));
}

/// Every diagnostic of read_stream on `text`, as "code line:col message",
/// plus the ids when the stream was accepted.
struct StreamParse {
  std::vector<std::string> diags;
  std::optional<std::vector<int>> ids;
};

StreamParse parse_stream(const std::string& text) {
  std::istringstream is(text);
  guard::Diag diag;
  StreamParse out;
  const auto s = read_stream(is, diag, "t.stream");
  for (const guard::Status& st : diag.entries())
    out.diags.push_back(std::string(guard::code_name(st.code)) + " " +
                        std::to_string(st.loc.line) + ":" +
                        std::to_string(st.loc.col) + " " + st.message);
  if (s) out.ids = s->seq;
  return out;
}

// Good ids, then one token the in-place scanner cannot take, on one line:
// the line falls back to the token-by-token parser, so every code, line,
// column and accepted id matches what that parser alone produces.
TEST(TextIo, StreamFastAndSlowPathsAgree) {
  using Ids = std::vector<int>;
  struct Case {
    const char* line2;
    std::vector<std::string> diags;
    std::optional<Ids> ids;
  };
  const std::vector<Case> cases = {
      {"1 2 x5 3",
       {"GCR_E_PARSE 2:5 stream entry 'x5' is not an instruction id"},
       std::nullopt},
      {"1 2 -1 3", {"GCR_E_RANGE 2:5 negative instruction id"}, std::nullopt},
      {"1 -1 -2 3",
       {"GCR_E_RANGE 2:3 negative instruction id",
        "GCR_E_RANGE 2:6 negative instruction id"},
       std::nullopt},
      {"1 2 +7 3",
       {"GCR_E_PARSE 2:5 stream entry '+7' is not an instruction id"},
       std::nullopt},
      {"1 2 2147483648 3",
       {"GCR_E_PARSE 2:5 stream entry '2147483648' is not an instruction id"},
       std::nullopt},
      {"1 99999999999999999999",
       {"GCR_E_PARSE 2:3 stream entry '99999999999999999999' is not an "
        "instruction id"},
       std::nullopt},
      {"1 2 5x 3",
       {"GCR_E_PARSE 2:5 stream entry '5x' is not an instruction id"},
       std::nullopt},
      {"1 2 2147483647", {}, Ids{8, 9, 1, 2, 2147483647, 4}},
      {"1 2 007 3", {}, Ids{8, 9, 1, 2, 7, 3, 4}},
      {"1 -0 3", {}, Ids{8, 9, 1, 0, 3, 4}},
      {"1\t2\t\t3", {}, Ids{8, 9, 1, 2, 3, 4}},
      {"1\r2 3\r", {}, Ids{8, 9, 1, 2, 3, 4}},
      {" \v1\f2 ", {}, Ids{8, 9, 1, 2, 4}},
      // Short tokens in the last one or two bytes of a line, where the
      // three-byte short-token loop hands over to the digit loop.
      {"1 2 3 45", {}, Ids{8, 9, 1, 2, 3, 45, 4}},
      {"10 7", {}, Ids{8, 9, 10, 7, 4}},
      {"5", {}, Ids{8, 9, 5, 4}},
      {"42", {}, Ids{8, 9, 42, 4}},
      {"1 12x 3",
       {"GCR_E_PARSE 2:3 stream entry '12x' is not an instruction id"},
       std::nullopt},
      {"1 12x",
       {"GCR_E_PARSE 2:3 stream entry '12x' is not an instruction id"},
       std::nullopt},
      {"1- 2", {"GCR_E_PARSE 2:1 stream entry '1-' is not an instruction id"},
       std::nullopt},
      {"12\t3", {}, Ids{8, 9, 12, 3, 4}},
      {"00 1", {}, Ids{8, 9, 0, 1, 4}},
      {"12 345 6", {}, Ids{8, 9, 12, 345, 6, 4}},
      {"1\v22\f3\v\f44", {}, Ids{8, 9, 1, 22, 3, 44, 4}},
  };
  for (const Case& c : cases) {
    const StreamParse got =
        parse_stream("8 9\n" + std::string(c.line2) + "\n4\n");
    EXPECT_EQ(got.diags, c.diags) << c.line2;
    EXPECT_EQ(got.ids, c.ids) << c.line2;
  }
  // No newline at the end of the file: the last line ends the buffer, and
  // its last short token must still be read without looking past it.
  EXPECT_EQ(parse_stream("8 9\n1 12").ids, (Ids{8, 9, 1, 12}));
  EXPECT_EQ(parse_stream("8 9\n10 7").ids, (Ids{8, 9, 10, 7}));
}

/// read_stream's result with every line parsed token by token, the way its
/// slow path does: the reference the in-place scanner must agree with.
StreamParse parse_stream_reference(const std::string& text) {
  std::istringstream is(text);
  guard::Lexer lx(is, "t.stream");
  guard::Diag diag;
  std::vector<int> ids;
  for (std::size_t i = 0; i < lx.num_lines(); ++i) {
    guard::LineCursor c = lx.cursor(i);
    while (!c.at_end()) {
      int id = 0;
      if (!c.next_int(id)) {
        diag.error(guard::Code::Parse,
                   "stream entry '" + std::string(c.last_token()) +
                       "' is not an instruction id",
                   c.loc());
        break;
      }
      if (id < 0) {
        diag.error(guard::Code::Range, "negative instruction id", c.loc());
        continue;
      }
      ids.push_back(id);
    }
  }
  if (ids.empty())
    diag.warning(guard::Code::EmptyStream, "instruction stream is empty",
                 lx.end_loc());
  StreamParse out;
  for (const guard::Status& st : diag.entries())
    out.diags.push_back(std::string(guard::code_name(st.code)) + " " +
                        std::to_string(st.loc.line) + ":" +
                        std::to_string(st.loc.col) + " " + st.message);
  if (diag.error_count() == 0) out.ids = std::move(ids);
  return out;
}

// Random lines of 0-12 digit tokens, some signed or with junk, between runs
// of every separator: read_stream gives the ids and diagnostics of the
// token-by-token reference on every file.
TEST(TextIo, StreamScannerMatchesTokenParserOnRandomLines) {
  constexpr std::string_view kSeps = " \t\r\v\f";
  constexpr std::string_view kJunk = "x.e+-#";
  std::mt19937 rng(20261019);
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  for (int file = 0; file < 3000; ++file) {
    std::string text;
    const int lines = 1 + pick(3);
    for (int l = 0; l < lines; ++l) {
      const int tokens = pick(9);
      for (int t = 0; t < tokens; ++t) {
        for (int k = pick(3) + (t > 0 ? 1 : 0); k > 0; --k)
          text += kSeps[static_cast<std::size_t>(pick(5))];
        const int kind = pick(10);
        if (kind == 0) text += pick(2) ? '-' : '+';
        // Mostly one or two digits, as in long traces; up to twelve.
        const int digits = pick(4) ? 1 + pick(2) : pick(13);
        for (int d = 0; d < digits; ++d)
          text += static_cast<char>('0' + pick(10));
        if (kind == 1)
          text.insert(text.size() - static_cast<std::size_t>(pick(digits + 1)),
                      1, kJunk[static_cast<std::size_t>(pick(6))]);
      }
      for (int k = pick(3); k > 0; --k)
        text += kSeps[static_cast<std::size_t>(pick(5))];
      text += '\n';
    }
    if (pick(2)) text.pop_back();  // half the files end without a newline
    const StreamParse want = parse_stream_reference(text);
    const StreamParse got = parse_stream(text);
    ASSERT_EQ(got.diags, want.diags) << text;
    ASSERT_EQ(got.ids, want.ids) << text;
  }
}

TEST(TextIo, RtlRoundTrip) {
  const auto ex = benchdata::paper_example();
  std::stringstream ss;
  write_rtl(ss, ex.rtl);
  const activity::RtlDescription back = read_rtl(ss);
  ASSERT_EQ(back.num_instructions(), ex.rtl.num_instructions());
  ASSERT_EQ(back.num_modules(), ex.rtl.num_modules());
  for (int i = 0; i < back.num_instructions(); ++i)
    for (int m = 0; m < back.num_modules(); ++m)
      EXPECT_EQ(back.uses(i, m), ex.rtl.uses(i, m)) << i << "," << m;
}

TEST(TextIo, RtlRejectsGarbage) {
  std::stringstream ss("bogus 1 2\n");
  EXPECT_THROW(read_rtl(ss), std::runtime_error);
  std::stringstream empty("# nothing\n");
  EXPECT_THROW(read_rtl(empty), std::runtime_error);
}

// Golden bytes: every writer must produce exactly what its former
// `ostream <<` body did at setprecision(max_digits10). The references below
// are those bodies, kept only here.

std::ostringstream reference_stream() {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  return os;
}

const double kEdgeValues[] = {0.0,   -0.0,  0.1, 1e300, 5e-324,
                              123456789012345678.0, -1.0, 1.0 / 3};

TEST(TextIo, SinksWriterMatchesReferenceBytes) {
  const geom::DieArea die{-0.0, 0.1, 1e300, 123456789012345678.0};
  ct::SinkList sinks;
  for (const double v : kEdgeValues) sinks.push_back({{v, -v}, v});
  const auto bench = benchdata::generate_rbench("r1");
  sinks.insert(sinks.end(), bench.sinks.begin(), bench.sinks.end());

  std::ostringstream ref = reference_stream();
  ref << "# gcr sinks file\n";
  ref << "die " << die.xlo << ' ' << die.ylo << ' ' << die.xhi << ' '
      << die.yhi << '\n';
  ref << "# x y cap\n";
  for (const auto& s : sinks)
    ref << s.loc.x << ' ' << s.loc.y << ' ' << s.cap << '\n';

  std::ostringstream got;
  write_sinks(got, die, sinks);
  EXPECT_EQ(got.str(), ref.str());
}

TEST(TextIo, StreamWriterMatchesReferenceBytes) {
  std::mt19937 rng(7);
  activity::InstructionStream s;
  for (int t = 0; t < 100003; ++t)  // not a multiple of the 20-id row
    s.seq.push_back(t % 97 == 0 ? INT_MAX : static_cast<int>(rng() % 64));

  std::ostringstream ref = reference_stream();
  ref << "# gcr instruction stream (" << s.length() << " cycles)\n";
  for (int t = 0; t < s.length(); ++t)
    ref << s.seq[static_cast<std::size_t>(t)] << ((t + 1) % 20 ? ' ' : '\n');
  ref << '\n';

  std::ostringstream got;
  write_stream(got, s);
  EXPECT_EQ(got.str(), ref.str());
}

TEST(TextIo, RtlWriterMatchesReferenceBytes) {
  const auto ex = benchdata::paper_example();
  std::ostringstream ref = reference_stream();
  ref << "# gcr rtl description\n";
  ref << "rtl " << ex.rtl.num_instructions() << ' ' << ex.rtl.num_modules()
      << '\n';
  for (int i = 0; i < ex.rtl.num_instructions(); ++i) {
    ref << i;
    ex.rtl.module_set(i).for_each([&](int m) { ref << ' ' << m; });
    ref << '\n';
  }

  std::ostringstream got;
  write_rtl(got, ex.rtl);
  EXPECT_EQ(got.str(), ref.str());
}

TEST(TextIo, DeltaWriterMatchesReferenceBytes) {
  eco::DesignDelta d;
  for (const double v : kEdgeValues) {
    d.moves.push_back({INT_MAX, {v, -v}});
    d.adds.push_back({{{-v, v}, v}, INT_MAX});
  }
  d.removes = {0, INT_MAX, INT_MIN};
  d.stream = activity::InstructionStream{{3, 0, INT_MAX, 1}};

  std::ostringstream ref = reference_stream();
  ref << "# gcr design delta\n";
  ref << "delta\n";
  for (const eco::SinkMove& mv : d.moves)
    ref << "move " << mv.sink << ' ' << mv.to.x << ' ' << mv.to.y << '\n';
  for (const int r : d.removes) ref << "remove " << r << '\n';
  for (const eco::SinkAdd& add : d.adds)
    ref << "add " << add.sink.loc.x << ' ' << add.sink.loc.y << ' '
        << add.sink.cap << ' ' << add.module << '\n';
  ref << "stream";
  for (const activity::InstrId id : d.stream->seq) ref << ' ' << id;
  ref << '\n';

  std::ostringstream got;
  write_delta(got, d);
  EXPECT_EQ(got.str(), ref.str());
}

TEST(TextIo, ReqsWriterMatchesReferenceBytes) {
  std::vector<RouteRequest> reqs(3);
  reqs[0].id = "plain";
  reqs[0].sinks = "a.sinks";
  reqs[0].rtl = "a.rtl";
  reqs[0].stream = "a.stream";
  RouteRequest& full = reqs[1];
  full.id = "every-key";
  full.sinks = std::string(40000, 's');  // longer than one output block
  full.rtl = "d/b.rtl";
  full.stream = "d/b.stream";
  full.style = core::TreeStyle::Gated;
  full.topology = core::TopologyScheme::Mmm;
  full.strength = 0.1;
  full.auto_tune = true;
  full.deadline_ms = 123456789012345678.0;
  full.eco = "d/b.delta";
  reqs[2] = full;
  reqs[2].id = "edges";
  reqs[2].sinks = "c.sinks";
  reqs[2].strength = -0.0;
  reqs[2].deadline_ms = 0.0;

  std::ostringstream ref = reference_stream();
  ref << "# gcr serve batch\n";
  ref << "reqs\n";
  for (const RouteRequest& r : reqs) {
    ref << r.id << " sinks=" << r.sinks << " rtl=" << r.rtl
        << " stream=" << r.stream;
    if (r.style != core::TreeStyle::GatedReduced)
      ref << " style=" << core::option_name(r.style);
    if (r.topology != core::TopologyScheme::MinSwitchedCap)
      ref << " topology=" << core::option_name(r.topology);
    if (r.strength) ref << " strength=" << *r.strength;
    if (r.auto_tune) ref << " auto_tune=1";
    if (r.deadline_ms >= 0.0) ref << " deadline_ms=" << r.deadline_ms;
    if (!r.eco.empty()) ref << " eco=" << r.eco;
    ref << '\n';
  }

  std::ostringstream got;
  write_reqs(got, reqs);
  EXPECT_EQ(got.str(), ref.str());
}

TEST(TextIo, WritersLeaveStreamStateAlone) {
  const auto bench = benchdata::generate_rbench("r1");
  std::ostringstream os;
  os << std::scientific << std::showpos << std::setprecision(3);
  const std::ios::fmtflags flags = os.flags();
  write_sinks(os, bench.die, bench.sinks);
  eco::DesignDelta d;
  d.moves.push_back({1, {0.1, 2.5}});
  write_delta(os, d);
  EXPECT_EQ(os.precision(), 3);
  EXPECT_EQ(os.flags(), flags);

  // The stream's flags do not leak into the bytes either.
  std::ostringstream clean;
  write_sinks(clean, bench.die, bench.sinks);
  write_delta(clean, d);
  EXPECT_EQ(os.str(), clean.str());
}

TEST(Svg, EmitsWellFormedDrawing) {
  benchdata::RBenchSpec spec{"t", 12, 2000.0, 0.01, 0.03, 5};
  const auto bench = benchdata::generate_rbench(spec);
  cts::BuildOptions opts;
  const auto built = cts::build_topology(bench.sinks, nullptr, {}, opts);
  std::vector<bool> gates(static_cast<std::size_t>(built.topo.num_nodes()),
                          true);
  gates[static_cast<std::size_t>(built.topo.root())] = false;
  const auto tree = ct::embed(built.topo, bench.sinks, gates, opts.tech);
  const gating::ControllerPlacement ctrl(bench.die, 4);

  std::stringstream ss;
  write_svg(ss, tree, bench.die, ctrl);
  const std::string svg = ss.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One polyline per non-root edge plus one per gate star wire.
  std::size_t polylines = 0;
  for (std::size_t pos = 0;
       (pos = svg.find("<polyline", pos)) != std::string::npos; ++pos)
    ++polylines;
  EXPECT_EQ(polylines, static_cast<std::size_t>(tree.num_nodes() - 1 +
                                                tree.num_gates()));
  // Four controllers drawn.
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = svg.find("fill=\"#6b46c1\"", pos)) != std::string::npos; ++pos)
    ++count;
  EXPECT_EQ(count, 4u);
}

}  // namespace
}  // namespace gcr::io
