#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/design.h"
#include "core/router.h"
#include "guard/arena.h"
#include "guard/deadline.h"
#include "guard/fault.h"
#include "guard/lexer.h"
#include "guard/status.h"
#include "guard/validate.h"
#include "io/text_io.h"
#include "verify/generator.h"

using namespace gcr;
using guard::Code;

// ---------------------------------------------------------------------------
// Status / Diag / Result

TEST(GuardStatus, CodeNamesAreStable) {
  // These strings are the CLI/CI contract -- renaming one is a breaking
  // change (docs/robustness.md).
  EXPECT_EQ(guard::code_name(Code::Ok), "GCR_OK");
  EXPECT_EQ(guard::code_name(Code::Parse), "GCR_E_PARSE");
  EXPECT_EQ(guard::code_name(Code::NonFinite), "GCR_E_NONFINITE");
  EXPECT_EQ(guard::code_name(Code::TreeStructure), "GCR_E_TREE");
  EXPECT_EQ(guard::code_name(Code::Resource), "GCR_E_RESOURCE");
  EXPECT_EQ(guard::code_name(Code::Deadline), "GCR_E_DEADLINE");
  EXPECT_EQ(guard::code_name(Code::DetachedMerge), "GCR_W_DETACHED_MERGE");
  EXPECT_EQ(guard::code_name(Code::Overload), "GCR_E_OVERLOAD");
  EXPECT_EQ(guard::code_name(Code::CacheEvict), "GCR_W_CACHE_EVICT");
}

TEST(GuardStatus, ToStringCarriesLocation) {
  const guard::Status s =
      guard::make_error(Code::Parse, "bad token", {"f.sinks", 3, 7});
  EXPECT_EQ(s.to_string(), "f.sinks:3:7: error GCR_E_PARSE: bad token");
}

TEST(GuardStatus, ExitCodeMapping) {
  EXPECT_EQ(guard::exit_code_for(Code::Ok), 0);
  EXPECT_EQ(guard::exit_code_for(Code::Usage), 1);
  EXPECT_EQ(guard::exit_code_for(Code::Parse), 2);
  EXPECT_EQ(guard::exit_code_for(Code::OutOfDie), 2);
  EXPECT_EQ(guard::exit_code_for(Code::Resource), 3);
  EXPECT_EQ(guard::exit_code_for(Code::Deadline), 3);
  EXPECT_EQ(guard::exit_code_for(Code::Overload), 3);
  EXPECT_EQ(guard::exit_code_for(Code::Internal), 4);
  EXPECT_EQ(guard::exit_code_for(Code::DetachedMerge), 0);  // warning
  EXPECT_EQ(guard::exit_code_for(Code::CacheEvict), 0);     // warning
}

TEST(GuardDiag, CollectsAndRanks) {
  guard::Diag d;
  d.warning(Code::EmptyStream, "w");
  EXPECT_FALSE(d.has_errors());
  EXPECT_EQ(d.exit_code(), 0);
  d.error(Code::Parse, "e1", {"f", 2, 1});
  d.error(Code::Deadline, "e2");
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 2u);
  EXPECT_EQ(d.warning_count(), 1u);
  EXPECT_EQ(d.first_error().code, Code::Parse);
  EXPECT_EQ(d.first_error().loc.line, 2);
  EXPECT_TRUE(d.has_code(Code::Deadline));
  EXPECT_EQ(d.exit_code(), 3);  // worst of {2, 3}
}

TEST(GuardDiag, BoundedAndCountsDrops) {
  guard::Diag d(4);
  for (int i = 0; i < 10; ++i) d.error(Code::Parse, "e");
  EXPECT_EQ(d.entries().size(), 4u);
  EXPECT_EQ(d.error_count(), 10u);
  EXPECT_EQ(d.dropped(), 6u);
}

TEST(GuardResult, ValueAndStatus) {
  guard::Result<int> ok = 41;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 41);
  guard::Result<int> bad = guard::make_error(Code::Io, "nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code, Code::Io);
  EXPECT_EQ(bad.value_or(7), 7);
}

// ---------------------------------------------------------------------------
// Deadline

TEST(GuardDeadline, UnlimitedNeverExpires) {
  const guard::Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
}

TEST(GuardDeadline, ExpiredDeadlineTripsThePoll) {
  const guard::Deadline d = guard::Deadline::after_ms(0.0);
  EXPECT_TRUE(d.expired());
  const guard::DeadlineScope scope(d);
  ASSERT_NE(guard::current_deadline(), nullptr);
  try {
    guard::poll_deadline("unit");
    FAIL() << "poll_deadline did not throw";
  } catch (const guard::CancelledError& e) {
    EXPECT_EQ(e.phase(), "unit");
    EXPECT_EQ(e.status().code, Code::Deadline);
  }
}

TEST(GuardDeadline, ScopesNestAndRestore) {
  EXPECT_EQ(guard::current_deadline(), nullptr);
  const guard::Deadline outer;
  {
    const guard::DeadlineScope a(outer);
    const guard::Deadline* seen = guard::current_deadline();
    EXPECT_EQ(seen, &outer);
    {
      const guard::Deadline inner = guard::Deadline::after_ms(1e9);
      const guard::DeadlineScope b(inner);
      EXPECT_EQ(guard::current_deadline(), &inner);
    }
    EXPECT_EQ(guard::current_deadline(), &outer);
  }
  EXPECT_EQ(guard::current_deadline(), nullptr);
}

// ---------------------------------------------------------------------------
// Fault injection

TEST(GuardFault, NthVisitFiresExactlyOnce) {
  guard::FaultInjector& inj = guard::FaultInjector::global();
  inj.arm({42, 5, 0.0});
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(inj.should_inject("site"));
  inj.disarm();
  int count = 0;
  for (std::size_t i = 0; i < fired.size(); ++i)
    if (fired[i]) {
      ++count;
      EXPECT_EQ(i, 4u);  // 1-based visit 5
    }
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(guard::fault_point("site"));  // disarmed: never fires
}

TEST(GuardFault, BernoulliSequenceIsSeedDeterministic) {
  guard::FaultInjector& inj = guard::FaultInjector::global();
  const auto run = [&](std::uint64_t seed) {
    inj.arm({seed, 0, 0.3});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(inj.should_inject("s"));
    inj.disarm();
    return fired;
  };
  const std::vector<bool> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different pattern
  EXPECT_EQ(inj.points_visited(), 64u);
}

TEST(GuardFault, ShortReadTruncateEndsEarly) {
  guard::ShortReadStream is("hello world", 5,
                            guard::ShortReadStreambuf::Mode::Truncate);
  std::string tok;
  is >> tok;
  EXPECT_EQ(tok, "hello");
  EXPECT_FALSE(is >> tok);
  EXPECT_TRUE(is.eof());
  EXPECT_FALSE(is.bad());
  EXPECT_TRUE(is.tripped());
}

TEST(GuardFault, ShortReadFailSetsBadbit) {
  guard::ShortReadStream is("hello world", 5,
                            guard::ShortReadStreambuf::Mode::Fail);
  std::string tok;
  is >> tok;
  EXPECT_EQ(tok, "hello");
  EXPECT_FALSE(is >> tok);
  EXPECT_TRUE(is.bad());
  EXPECT_TRUE(is.tripped());
}

TEST(GuardFault, ParserReportsInjectedStreamFailureAsIo) {
  guard::ShortReadStream is("die 0 0 10 10\n1 2 0.01\n3 4 0.01\n", 20,
                            guard::ShortReadStreambuf::Mode::Fail);
  guard::Diag diag;
  EXPECT_FALSE(io::read_sinks(is, diag, "t.sinks").has_value());
  EXPECT_TRUE(diag.has_code(Code::Io));
}

// ---------------------------------------------------------------------------
// Bounded arena

TEST(GuardArena, CapsTotalBytes) {
  guard::BoundedArena arena(64);
  const auto block = [] { return std::make_unique<char[]>(64); };
  EXPECT_NE(arena.adopt(block(), 40), nullptr);
  EXPECT_EQ(arena.adopt(block(), 40), nullptr);  // would exceed the cap
  EXPECT_NE(arena.adopt(block(), 24), nullptr);  // exactly fills it
  EXPECT_EQ(arena.adopt(block(), 1), nullptr);
  EXPECT_EQ(arena.used(), 64u);
}

TEST(GuardArena, AdoptKeepsTheBlockWithoutCopying) {
  guard::BoundedArena arena(8);
  auto block = std::make_unique<char[]>(8);
  std::memcpy(block.get(), "abc", 3);
  const char* raw = block.get();
  EXPECT_EQ(arena.adopt(std::move(block), 3), raw);  // same bytes, no copy
  EXPECT_EQ(std::memcmp(raw, "abc", 3), 0);
  EXPECT_EQ(arena.used(), 3u);
}

TEST(GuardArena, InjectedAllocationFailure) {
  guard::FaultInjector::global().arm({1, 1, 0.0});  // first visit fires
  guard::BoundedArena arena(1 << 10);
  EXPECT_EQ(arena.adopt(std::make_unique<char[]>(8), 8), nullptr);
  // nth=1 already consumed
  EXPECT_NE(arena.adopt(std::make_unique<char[]>(8), 8), nullptr);
  guard::FaultInjector::global().disarm();
}

TEST(GuardLexer, ByteCapReportsResource) {
  std::istringstream is("die 0 0 10 10\n1 2 0.01\n");
  guard::Lexer lx(is, "t.sinks", /*max_bytes=*/8);
  EXPECT_FALSE(lx.ok());
  EXPECT_EQ(lx.load_status().code, Code::Resource);
}

namespace {

/// Serves a payload `chunk` bytes per refill, so a Lexer reading it gets
/// several short blocks and lines straddle block boundaries.
class ChunkedStreambuf : public std::streambuf {
 public:
  ChunkedStreambuf(std::string payload, std::size_t chunk)
      : payload_(std::move(payload)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (pos_ >= payload_.size()) return traits_type::eof();
    const std::size_t n = std::min(chunk_, payload_.size() - pos_);
    char* b = payload_.data() + pos_;
    setg(b, b, b + n);
    pos_ += n;
    return traits_type::to_int_type(*b);
  }

 private:
  std::string payload_;
  std::size_t chunk_;
  std::size_t pos_{0};
};

/// (original line number, text) of every payload line.
using Lines = std::vector<std::pair<int, std::string>>;

Lines payload_lines(const guard::Lexer& lx) {
  Lines out;
  for (std::size_t i = 0; i < lx.num_lines(); ++i)
    out.emplace_back(lx.line_number(i), std::string(lx.line_text(i)));
  return out;
}

}  // namespace

TEST(GuardLexer, CrlfLinesKeepTheCarriageReturnAsWhitespace) {
  std::istringstream is("a b\r\n# note\r\n\r\nc\r\n");
  guard::Lexer lx(is, "t");
  ASSERT_TRUE(lx.ok());
  EXPECT_EQ(payload_lines(lx), (Lines{{1, "a b\r"}, {4, "c\r"}}));
  guard::LineCursor c = lx.cursor(0);
  std::string_view tok;
  ASSERT_TRUE(c.next_token(tok));
  ASSERT_TRUE(c.next_token(tok));
  EXPECT_EQ(tok, "b");
  EXPECT_TRUE(c.at_end());
  EXPECT_EQ(lx.end_loc().line, 5);
}

TEST(GuardLexer, LastLineWithoutNewline) {
  std::istringstream is("1 2\n3 4");
  guard::Lexer lx(is, "t");
  ASSERT_TRUE(lx.ok());
  EXPECT_EQ(payload_lines(lx), (Lines{{1, "1 2"}, {2, "3 4"}}));
  EXPECT_EQ(lx.end_loc().line, 3);
}

TEST(GuardLexer, CommentAndBlankLinesKeepOriginalNumbers) {
  std::istringstream is("# header\n\n \t\f\n1 2 # tail\n#x\n3\n");
  guard::Lexer lx(is, "t");
  ASSERT_TRUE(lx.ok());
  EXPECT_EQ(payload_lines(lx), (Lines{{4, "1 2 "}, {6, "3"}}));
  EXPECT_EQ(lx.line_loc(1).line, 6);
  EXPECT_EQ(lx.end_loc().line, 7);
}

TEST(GuardLexer, LinesCrossingReadBlocksStayWhole) {
  const std::string text = "alpha beta\ngamma # delta\n\nepsilon zeta\neta";
  for (const std::size_t chunk : {1u, 3u, 5u, 11u, 64u}) {
    ChunkedStreambuf buf(text, chunk);
    std::istream is(&buf);
    guard::Lexer lx(is, "t");
    ASSERT_TRUE(lx.ok()) << "chunk " << chunk;
    EXPECT_EQ(payload_lines(lx), (Lines{{1, "alpha beta"},
                                       {2, "gamma "},
                                       {4, "epsilon zeta"},
                                       {5, "eta"}}))
        << "chunk " << chunk;
  }
}

TEST(GuardLexer, ByteCapIsInclusiveAndStopsReadingPastIt) {
  const std::string text = "ab\ncd\nef\n";  // 9 bytes
  for (const std::size_t cap : {10u, 9u}) {
    std::istringstream is(text);
    guard::Lexer lx(is, "t", cap);
    EXPECT_TRUE(lx.ok()) << "cap " << cap;
    EXPECT_EQ(lx.num_lines(), 3u);
  }
  {
    std::istringstream is(text);
    guard::Lexer lx(is, "t", 8);  // one byte over
    ASSERT_FALSE(lx.ok());
    EXPECT_EQ(lx.load_status().code, Code::Resource);
    EXPECT_EQ(lx.load_status().loc.line, 4);  // just past the crossing line
  }
  {
    std::istringstream is(text);
    guard::Lexer lx(is, "t", 4);
    ASSERT_FALSE(lx.ok());
    EXPECT_EQ(lx.load_status().loc.line, 3);
    EXPECT_EQ(is.tellg(), 5);  // read cap + 1 bytes, then stopped
  }
  ChunkedStreambuf buf(text, 2);
  std::istream is(&buf);
  guard::Lexer lx(is, "t", 8);
  EXPECT_EQ(lx.load_status().code, Code::Resource);
}

TEST(GuardLexer, ShortReadAnchorsJustPastTheLastWholeLine) {
  guard::ShortReadStream is("l1\nl2\nl3 partial\nl4\n", 9,
                            guard::ShortReadStreambuf::Mode::Fail);
  guard::Lexer lx(is, "t");
  ASSERT_FALSE(lx.ok());
  EXPECT_EQ(lx.load_status().code, Code::Io);
  EXPECT_EQ(lx.load_status().loc.line, 3);
}

TEST(GuardLexer, NthVisitReadFaultLandsOnItsLine) {
  // Visit 1 is the file's one arena allocation; raw line k is visit k + 1.
  const std::string text = "1\n# two\n3\n\n5\n";
  guard::FaultInjector& inj = guard::FaultInjector::global();
  for (int k = 1; k <= 5; ++k) {
    inj.arm({9, static_cast<std::uint64_t>(k) + 1, 0.0});
    std::istringstream is(text);
    guard::Lexer lx(is, "t");
    inj.disarm();
    ASSERT_FALSE(lx.ok()) << "line " << k;
    EXPECT_EQ(lx.load_status().code, Code::Io);
    EXPECT_EQ(lx.load_status().loc.line, k + 1);
    EXPECT_EQ(lx.end_loc().line, k + 1);
    EXPECT_EQ(inj.last_site(), "lexer.read");
  }
  inj.arm({9, 1, 0.0});
  std::istringstream is(text);
  guard::Lexer lx(is, "t");
  EXPECT_EQ(inj.points_visited(), 1u);  // the allocation failed first
  inj.disarm();
  EXPECT_EQ(lx.load_status().code, Code::Resource);
  EXPECT_EQ(inj.last_site(), "arena.alloc");
}

// ---------------------------------------------------------------------------
// validate_design

namespace {

core::Design small_design() {
  verify::DesignSpec spec;
  spec.seed = 11;
  spec.num_sinks = 12;
  return verify::generate_design(spec);
}

}  // namespace

TEST(GuardValidate, AcceptsGeneratedDesign) {
  guard::Diag diag;
  EXPECT_TRUE(guard::validate_design(small_design(), diag));
  EXPECT_FALSE(diag.has_errors());
}

TEST(GuardValidate, RejectsNonFiniteCoordinate) {
  core::Design d = small_design();
  d.sinks[3].loc.x = std::nan("");
  guard::Diag diag;
  EXPECT_FALSE(guard::validate_design(d, diag));
  EXPECT_TRUE(diag.has_code(Code::NonFinite));
}

TEST(GuardValidate, RejectsDenormalCap) {
  core::Design d = small_design();
  d.sinks[0].cap = 5e-320;
  guard::Diag diag;
  EXPECT_FALSE(guard::validate_design(d, diag));
  EXPECT_TRUE(diag.has_code(Code::NonFinite));
}

TEST(GuardValidate, StrictFlagsLenientDemotes) {
  core::Design d = small_design();
  d.sinks[1].loc = d.sinks[0].loc;                    // duplicate
  d.sinks[2].loc = {d.die.xhi + 100.0, d.die.yhi};    // out of die
  guard::Diag strict;
  EXPECT_FALSE(guard::validate_design(d, strict));
  EXPECT_TRUE(strict.has_code(Code::Duplicate));
  EXPECT_TRUE(strict.has_code(Code::OutOfDie));

  guard::Diag lenient;
  guard::ValidateOptions opts;
  opts.strict = false;
  EXPECT_TRUE(guard::validate_design(d, lenient, opts));
  EXPECT_FALSE(lenient.has_errors());
  EXPECT_TRUE(lenient.has_code(Code::Duplicate));  // demoted to warnings
  EXPECT_TRUE(lenient.has_code(Code::OutOfDie));
}

TEST(GuardValidate, DuplicateFindingsKeepTheirTextAndOrder) {
  // A three-way duplicate (sinks 3, 6 and 10, with sink 3 outside the die
  // so each copy has a finding before its duplicate one), a -0.0 / 0.0
  // pair (sinks 4 and 8), a non-finite sink (5) and a zero cap (10). Every
  // copy names the first sink at its location, and the findings keep the
  // sink-by-sink order.
  core::Design d = small_design();
  d.sinks[3].loc = {d.die.xhi + 5.0, d.die.ylo + 1.0};
  d.sinks[6].loc = d.sinks[3].loc;
  d.sinks[10].loc = d.sinks[3].loc;
  d.sinks[10].cap = 0.0;
  d.sinks[4].loc = {0.0, d.die.ylo + 2.0};
  d.sinks[8].loc = {-0.0, d.die.ylo + 2.0};
  d.sinks[5].loc.y = std::numeric_limits<double>::infinity();
  guard::Diag diag;
  EXPECT_FALSE(guard::validate_design(d, diag));
  std::vector<std::string> got;
  for (const guard::Status& s : diag.entries()) got.push_back(s.to_string());
  const std::vector<std::string> want = {
      "error GCR_E_OUT_OF_DIE: sink 3 lies outside the die area",
      "error GCR_E_NONFINITE: sink 5 has a non-finite or denormal coordinate",
      "error GCR_E_OUT_OF_DIE: sink 6 lies outside the die area",
      "error GCR_E_DUPLICATE: sink 6 duplicates the location of sink 3",
      "error GCR_E_DUPLICATE: sink 8 duplicates the location of sink 4",
      "error GCR_E_CAP: sink 10 has zero capacitance",
      "error GCR_E_OUT_OF_DIE: sink 10 lies outside the die area",
      "error GCR_E_DUPLICATE: sink 10 duplicates the location of sink 3",
  };
  EXPECT_EQ(got, want) << ::testing::PrintToString(got);
}

TEST(GuardValidate, NegativeCapIsAlwaysAnError) {
  core::Design d = small_design();
  d.sinks[4].cap = -0.01;
  guard::Diag diag;
  guard::ValidateOptions opts;
  opts.strict = false;
  EXPECT_FALSE(guard::validate_design(d, diag, opts));
  EXPECT_TRUE(diag.has_code(Code::BadCap));
}

TEST(GuardValidate, CapAboveTheMaximumIsAlwaysAnError) {
  // A finite but absurd load overflows the Elmore arithmetic downstream,
  // so lenient validation rejects it too.
  core::Design d = small_design();
  d.sinks[2].cap = 1e308;
  guard::Diag diag;
  guard::ValidateOptions opts;
  opts.strict = false;
  EXPECT_FALSE(guard::validate_design(d, diag, opts));
  EXPECT_TRUE(diag.has_code(Code::BadCap));
  d.sinks[2].cap = guard::kMaxSinkCap;
  guard::Diag at_max;
  EXPECT_TRUE(guard::validate_design(d, at_max, opts));
}

TEST(GuardValidate, CoordinateAboveTheMaximumIsAlwaysAnError) {
  // Out-of-die is only a lenient-mode warning, but a coordinate past
  // kMaxCoordinate overflows squared wire lengths, so it is an error in
  // both modes; so is a die bound past it.
  guard::ValidateOptions lenient;
  lenient.strict = false;
  core::Design d = small_design();
  d.sinks[2].loc = {1e200, 1e200};
  guard::Diag sink_diag;
  EXPECT_FALSE(guard::validate_design(d, sink_diag, lenient));
  EXPECT_TRUE(sink_diag.has_code(Code::Range));
  EXPECT_FALSE(sink_diag.has_code(Code::OutOfDie));

  d = small_design();
  d.die.xhi = 1e300;
  guard::Diag die_diag;
  EXPECT_FALSE(guard::validate_design(d, die_diag, lenient));
  EXPECT_TRUE(die_diag.has_code(Code::DieArea));

  d = small_design();
  d.sinks[2].loc = {-guard::kMaxCoordinate, guard::kMaxCoordinate};
  guard::Diag at_max;
  EXPECT_TRUE(guard::validate_design(d, at_max, lenient));
  EXPECT_FALSE(at_max.has_code(Code::Range));
}

TEST(GuardValidate, RejectsStreamIdOutOfRange) {
  core::Design d = small_design();
  d.stream.seq.push_back(d.rtl.num_instructions() + 3);
  d.stream.seq.push_back(d.rtl.num_instructions() + 9);
  guard::Diag diag;
  EXPECT_FALSE(guard::validate_design(d, diag));
  EXPECT_TRUE(diag.has_code(Code::StreamId));
  // The finding aggregates a count instead of one error per cycle.
  bool found = false;
  for (const guard::Status& s : diag.entries())
    if (s.code == Code::StreamId) {
      EXPECT_NE(s.message.find("2"), std::string::npos);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(GuardValidate, RejectsModuleMismatch) {
  core::Design d = small_design();
  d.sinks.push_back({{1.0, 1.0}, 0.01});  // identity map now short a module
  guard::Diag diag;
  EXPECT_FALSE(guard::validate_design(d, diag));
  EXPECT_TRUE(diag.has_code(Code::ModuleMismatch));
}

TEST(GuardValidate, ResourceCapFailsFast) {
  core::Design d = small_design();
  guard::Diag diag;
  guard::ValidateOptions opts;
  opts.limits.max_sinks = 4;
  EXPECT_FALSE(guard::validate_design(d, diag, opts));
  EXPECT_TRUE(diag.has_code(Code::Resource));
}

// ---------------------------------------------------------------------------
// route_guarded: deadlines and outcomes

TEST(GuardRoute, CompletesUnderUnlimitedDeadline) {
  const core::GatedClockRouter router(small_design());
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  const core::RouteOutcome out = router.route_guarded(opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.exit_code(), 0);
  EXPECT_FALSE(out.cancelled);
  EXPECT_FALSE(out.phases_completed.empty());
  EXPECT_EQ(out.phases_completed.back(), "delays");
}

TEST(GuardRoute, ExpiredDeadlineYieldsPartialOutcome) {
  verify::DesignSpec spec;
  spec.seed = 3;
  spec.num_sinks = 256;  // big enough that phases exist to abort
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::GatedReduced;
  opts.auto_tune_reduction = true;
  const core::RouteOutcome out =
      router.route_guarded(opts, guard::Deadline::after_ms(0.0));
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.cancelled);
  EXPECT_FALSE(out.aborted_phase.empty());
  EXPECT_TRUE(out.diag.has_code(Code::Deadline));
  EXPECT_EQ(out.exit_code(), 3);
}

TEST(GuardRoute, InvalidDesignReportsInsteadOfRouting) {
  core::Design d = small_design();
  d.sinks[0].loc.x = std::nan("");
  const core::GatedClockRouter router(std::move(d));
  const core::RouteOutcome out = router.route_guarded({});
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(out.cancelled);
  EXPECT_TRUE(out.diag.has_code(Code::NonFinite));
  EXPECT_EQ(out.exit_code(), 2);
  // The throwing wrapper surfaces the same finding as an exception.
  EXPECT_THROW((void)router.route({}), guard::GuardError);
}

// ---------------------------------------------------------------------------
// Replay artifacts

TEST(GuardArtifact, RoundTripsThroughJson) {
  verify::DesignSpec spec = verify::random_spec(99);
  std::ostringstream os;
  verify::write_design_artifact(os, spec, "route");
  std::istringstream is(os.str());
  const guard::Result<verify::DesignSpec> r =
      verify::load_design_artifact(is, "a.json");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().seed, spec.seed);
  EXPECT_EQ(r.value().num_sinks, spec.num_sinks);
  EXPECT_EQ(r.value().cloud, spec.cloud);
  EXPECT_DOUBLE_EQ(r.value().die_side, spec.die_side);
  EXPECT_DOUBLE_EQ(r.value().module_fraction, spec.module_fraction);
  EXPECT_EQ(r.value().constant_modules, spec.constant_modules);
}

TEST(GuardArtifact, RejectsWrongSchemaAndJunk) {
  {
    std::istringstream is("{\"schema\":\"other\",\"spec\":{}}");
    const auto r = verify::load_design_artifact(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code, Code::Header);
  }
  {
    std::istringstream is("not json at all");
    const auto r = verify::load_design_artifact(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code, Code::Parse);
  }
  {
    std::istringstream is(
        "{\"schema\":\"gcr.verify_artifact\",\"spec\":{\"num_sinks\":-4}}");
    const auto r = verify::load_design_artifact(is);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code, Code::Range);
  }
}
