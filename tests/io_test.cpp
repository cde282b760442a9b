#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/paper_example.h"
#include "benchdata/rbench.h"
#include "clocktree/embed.h"
#include "cts/greedy.h"
#include "gating/controller.h"
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
  };
  for (const Case& c : cases) {
    const StreamParse got =
        parse_stream("8 9\n" + std::string(c.line2) + "\n4\n");
    EXPECT_EQ(got.diags, c.diags) << c.line2;
    EXPECT_EQ(got.ids, c.ids) << c.line2;
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
