#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "guard/status.h"
#include "io/delta_io.h"
#include "io/reqs_io.h"
#include "io/text_io.h"
#include "io/tree_io.h"
#include "test_seed.h"
#include "verify/generator.h"

/// \file corpus_test.cpp
/// Drives the malformed-input corpus under tests/corpus/: every file there
/// is a deliberately broken design input whose first line declares the
/// exact diagnostic it must produce,
///
///   # expect GCR_E_PARSE line 3
///
/// (`line 0` means the error carries no line, e.g. whole-file structural
/// findings). The parser is picked by extension (.sinks/.rtl/.stream/
/// .tree/.delta). A second suite round-trips the text formats over the
/// seeded design generator: write -> read must reproduce the design (and
/// a derived ECO delta) exactly and without diagnostics.

namespace fs = std::filesystem;
using namespace gcr;

namespace {

struct Directive {
  std::string code;  // "GCR_E_PARSE"
  int line = 0;      // expected loc.line; 0 = no location attached
};

std::optional<Directive> read_directive(const fs::path& p) {
  std::ifstream is(p);
  std::string first;
  if (!std::getline(is, first)) return std::nullopt;
  const std::string tag = "# expect ";
  if (first.rfind(tag, 0) != 0) return std::nullopt;
  std::istringstream ss(first.substr(tag.size()));
  Directive d;
  std::string kw;
  if (!(ss >> d.code >> kw >> d.line) || kw != "line") return std::nullopt;
  return d;
}

/// Parse `p` with the reader its extension selects; true when a value came
/// back (i.e. the file was accepted).
bool parse_file(const fs::path& p, guard::Diag& diag) {
  std::ifstream is(p);
  const std::string name = p.filename().string();
  const std::string ext = p.extension().string();
  if (ext == ".sinks") return io::read_sinks(is, diag, name).has_value();
  if (ext == ".rtl") return io::read_rtl(is, diag, name).has_value();
  if (ext == ".stream") return io::read_stream(is, diag, name).has_value();
  if (ext == ".tree") return io::read_routed_tree(is, diag, name).has_value();
  if (ext == ".delta") return io::read_delta(is, diag, name).has_value();
  if (ext == ".reqs") return io::read_reqs(is, diag, name).has_value();
  ADD_FAILURE() << "corpus file with unknown extension: " << name;
  return true;
}

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(GCR_CORPUS_DIR))
    if (e.is_regular_file()) out.push_back(e.path());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(Corpus, EveryFileProducesItsDeclaredDiagnostic) {
  const std::vector<fs::path> files = corpus_files();
  ASSERT_GE(files.size(), 20u) << "corpus went missing from " << GCR_CORPUS_DIR;
  for (const fs::path& p : files) {
    SCOPED_TRACE(p.filename().string());
    const std::optional<Directive> want = read_directive(p);
    ASSERT_TRUE(want.has_value()) << "missing '# expect CODE line N' header";
    guard::Diag diag;
    EXPECT_FALSE(parse_file(p, diag)) << "malformed file was accepted";
    EXPECT_TRUE(diag.has_errors());
    bool matched = false;
    std::ostringstream got;
    for (const guard::Status& s : diag.entries()) {
      got << "  " << s.to_string() << '\n';
      if (guard::code_name(s.code) == want->code && s.loc.line == want->line)
        matched = true;
    }
    EXPECT_TRUE(matched) << "no diagnostic matched " << want->code << " line "
                         << want->line << "; got:\n"
                         << got.str();
  }
}

// ---------------------------------------------------------------------------
// Round-trip fuzz: write -> read is the identity for all three formats.

class RoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripFuzz, AllThreeTextFormats) {
  const verify::DesignSpec spec = verify::random_spec(GetParam());
  const core::Design d = verify::generate_design(spec);
  guard::Diag diag;

  {
    std::ostringstream os;
    io::write_sinks(os, d.die, d.sinks);
    std::istringstream is(os.str());
    const std::optional<io::SinksFile> back =
        io::read_sinks(is, diag, "rt.sinks");
    ASSERT_TRUE(back.has_value()) << "seed " << GetParam();
    EXPECT_EQ(back->die.xlo, d.die.xlo);
    EXPECT_EQ(back->die.yhi, d.die.yhi);
    ASSERT_EQ(back->sinks.size(), d.sinks.size());
    for (std::size_t i = 0; i < d.sinks.size(); ++i) {
      EXPECT_EQ(back->sinks[i].loc.x, d.sinks[i].loc.x);
      EXPECT_EQ(back->sinks[i].loc.y, d.sinks[i].loc.y);
      EXPECT_EQ(back->sinks[i].cap, d.sinks[i].cap);
    }
  }
  {
    std::ostringstream os;
    io::write_stream(os, d.stream);
    std::istringstream is(os.str());
    const std::optional<activity::InstructionStream> back =
        io::read_stream(is, diag, "rt.stream");
    ASSERT_TRUE(back.has_value()) << "seed " << GetParam();
    EXPECT_EQ(back->seq, d.stream.seq);
  }
  {
    std::ostringstream os;
    io::write_rtl(os, d.rtl);
    std::istringstream is(os.str());
    const std::optional<activity::RtlDescription> back =
        io::read_rtl(is, diag, "rt.rtl");
    ASSERT_TRUE(back.has_value()) << "seed " << GetParam();
    EXPECT_EQ(back->num_instructions(), d.rtl.num_instructions());
    EXPECT_EQ(back->num_modules(), d.rtl.num_modules());
    for (int i = 0; i < d.rtl.num_instructions(); ++i) {
      std::vector<int> a, b;
      d.rtl.module_set(i).for_each([&](int m) { a.push_back(m); });
      back->module_set(i).for_each([&](int m) { b.push_back(m); });
      EXPECT_EQ(a, b) << "instruction " << i << ", seed " << GetParam();
    }
  }
  EXPECT_FALSE(diag.has_errors());
}

TEST_P(RoundTripFuzz, DesignDelta) {
  const verify::DesignSpec spec = verify::random_spec(GetParam());
  const core::Design d = verify::generate_design(spec);
  const int n = static_cast<int>(d.sinks.size());

  // A delta exercising every edit kind, derived deterministically from the
  // design so each seed round-trips different payloads (including awkward
  // doubles straight out of the generator).
  eco::DesignDelta delta;
  delta.moves.push_back({0, {d.die.xhi * 0.25 + 0.125, d.die.yhi * 0.75}});
  if (n >= 2) delta.removes.push_back(n - 1);
  eco::SinkAdd add;
  add.sink.loc = {d.sinks[0].loc.x + 1.0, d.sinks[0].loc.y + 1.0};
  add.sink.cap = d.sinks[0].cap;
  add.module = 0;
  delta.adds.push_back(add);
  delta.stream.emplace();
  for (std::size_t i = 0; i < d.stream.seq.size(); i += 2)
    delta.stream->seq.push_back(d.stream.seq[i]);

  guard::Diag diag;
  std::ostringstream os;
  io::write_delta(os, delta);
  std::istringstream is(os.str());
  const std::optional<eco::DesignDelta> back =
      io::read_delta(is, diag, "rt.delta");
  ASSERT_TRUE(back.has_value()) << "seed " << GetParam();
  EXPECT_FALSE(diag.has_errors());
  ASSERT_EQ(back->moves.size(), delta.moves.size());
  for (std::size_t i = 0; i < delta.moves.size(); ++i) {
    EXPECT_EQ(back->moves[i].sink, delta.moves[i].sink);
    EXPECT_EQ(back->moves[i].to.x, delta.moves[i].to.x);
    EXPECT_EQ(back->moves[i].to.y, delta.moves[i].to.y);
  }
  EXPECT_EQ(back->removes, delta.removes);
  ASSERT_EQ(back->adds.size(), delta.adds.size());
  for (std::size_t i = 0; i < delta.adds.size(); ++i) {
    EXPECT_EQ(back->adds[i].sink.loc.x, delta.adds[i].sink.loc.x);
    EXPECT_EQ(back->adds[i].sink.loc.y, delta.adds[i].sink.loc.y);
    EXPECT_EQ(back->adds[i].sink.cap, delta.adds[i].sink.cap);
    EXPECT_EQ(back->adds[i].module, delta.adds[i].module);
  }
  ASSERT_TRUE(back->stream.has_value());
  EXPECT_EQ(back->stream->seq, delta.stream->seq);

  // An empty stream row is a real edit (replace with the empty stream) and
  // must survive the trip distinct from "no stream row at all".
  eco::DesignDelta wipe;
  wipe.stream.emplace();
  std::ostringstream os2;
  io::write_delta(os2, wipe);
  std::istringstream is2(os2.str());
  const std::optional<eco::DesignDelta> back2 =
      io::read_delta(is2, diag, "rt2.delta");
  ASSERT_TRUE(back2.has_value());
  ASSERT_TRUE(back2->stream.has_value());
  EXPECT_TRUE(back2->stream->seq.empty());
  EXPECT_FALSE(diag.has_errors());
}

// The .reqs batch format round-trips exactly, including every optional
// key, and defaults stay implicit (a written default-valued request reads
// back as defaults without emitting the keys).
TEST(ReqsRoundTrip, WriteReadIsIdentity) {
  std::vector<io::RouteRequest> reqs(2);
  reqs[0].id = "warm-1";
  reqs[0].sinks = "d/a.sinks";
  reqs[0].rtl = "d/a.rtl";
  reqs[0].stream = "d/a.stream";
  reqs[1].id = "drift-2";
  reqs[1].sinks = "d/b.sinks";
  reqs[1].rtl = "d/b.rtl";
  reqs[1].stream = "d/b.stream";
  reqs[1].style = core::TreeStyle::Gated;
  reqs[1].topology = core::TopologyScheme::NearestNeighbor;
  reqs[1].strength = 0.375;
  reqs[1].auto_tune = false;
  reqs[1].deadline_ms = 1500.5;
  reqs[1].eco = "d/b.delta";

  std::ostringstream os;
  io::write_reqs(os, reqs);
  std::istringstream is(os.str());
  guard::Diag diag;
  const std::optional<std::vector<io::RouteRequest>> back =
      io::read_reqs(is, diag, "rt.reqs");
  ASSERT_TRUE(back.has_value()) << os.str();
  EXPECT_FALSE(diag.has_errors());
  ASSERT_EQ(back->size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ((*back)[i].id, reqs[i].id);
    EXPECT_EQ((*back)[i].sinks, reqs[i].sinks);
    EXPECT_EQ((*back)[i].rtl, reqs[i].rtl);
    EXPECT_EQ((*back)[i].stream, reqs[i].stream);
    EXPECT_EQ((*back)[i].style, reqs[i].style);
    EXPECT_EQ((*back)[i].topology, reqs[i].topology);
    EXPECT_EQ((*back)[i].strength.has_value(), reqs[i].strength.has_value());
    if (reqs[i].strength) {
      EXPECT_EQ(*(*back)[i].strength, *reqs[i].strength);
    }
    EXPECT_EQ((*back)[i].auto_tune, reqs[i].auto_tune);
    EXPECT_EQ((*back)[i].deadline_ms, reqs[i].deadline_ms);
    EXPECT_EQ((*back)[i].eco, reqs[i].eco);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzz,
                         ::testing::ValuesIn(gcr::test::fuzz_seeds(
                             {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                              377, 610, 987, 1597, 2584, 4181, 6765, 2026})),
                         gcr::test::SeedParamName());
