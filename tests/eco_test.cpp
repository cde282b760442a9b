#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "core/router.h"
#include "eco/delta.h"
#include "eco/incremental.h"
#include "guard/validate.h"
#include "guard/deadline.h"
#include "guard/status.h"
#include "verify/differential.h"

/// \file eco_test.cpp
/// Unit coverage for gcr::eco: delta validation/application semantics,
/// survivor renumbering, and the incremental re-route contract on small
/// deterministic designs -- equivalence-or-bounded-delta against a
/// from-scratch route, out-of-cone preservation, cone provenance counts,
/// and guarded-flow behavior (bad deltas, expired deadlines). The broad
/// randomized sweep lives in verify::run_eco_differential
/// (gcr_check --eco-diff); this file pins the individual semantics.

namespace gcr {
namespace {

core::GatedClockRouter make_router(int n, std::uint64_t seed) {
  benchdata::RBenchSpec spec{"eco", n, 9000.0, 0.005, 0.08, seed};
  benchdata::RBench rb = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = 16;
  wspec.target_activity = 0.35;
  wspec.stream_length = 2000;
  wspec.seed = seed;
  benchdata::Workload wl =
      benchdata::generate_workload(wspec, rb.sinks, rb.die);
  return core::GatedClockRouter(core::Design{
      rb.die, rb.sinks, std::move(wl.rtl), std::move(wl.stream), {}});
}

bool has_error(const guard::Diag& diag, guard::Code code) {
  for (const guard::Status& s : diag.entries())
    if (s.code == code && s.severity != guard::Severity::Warning) return true;
  return false;
}

std::string diag_text(const guard::Diag& diag) {
  std::string out;
  for (const guard::Status& s : diag.entries()) out += s.to_string() + "\n";
  return out;
}

}  // namespace

TEST(EcoDelta, ValidateRejectsOutOfRangeAndDoublyTouchedSinks) {
  const core::GatedClockRouter router = make_router(8, 31);
  guard::Diag diag;
  eco::DesignDelta d;
  d.moves.push_back({8, {1.0, 1.0}});  // one past the end
  EXPECT_FALSE(eco::validate_delta(router.design(), d, diag));
  EXPECT_TRUE(has_error(diag, guard::Code::Range));

  guard::Diag diag2;
  eco::DesignDelta d2;
  d2.moves.push_back({3, {1.0, 1.0}});
  d2.removes.push_back(3);  // same sink moved and removed
  EXPECT_FALSE(eco::validate_delta(router.design(), d2, diag2));
  EXPECT_TRUE(has_error(diag2, guard::Code::Duplicate));
}

TEST(EcoDelta, ValidateRejectsBadPayloads) {
  const core::GatedClockRouter router = make_router(4, 32);
  const core::Design& base = router.design();

  guard::Diag nan_diag;
  eco::DesignDelta nan_move;
  nan_move.moves.push_back({0, {std::nan(""), 1.0}});
  EXPECT_FALSE(eco::validate_delta(base, nan_move, nan_diag));
  EXPECT_TRUE(has_error(nan_diag, guard::Code::NonFinite));

  guard::Diag cap_diag;
  eco::DesignDelta bad_add;
  bad_add.adds.push_back({{{10.0, 10.0}, -0.01}, 0});
  EXPECT_FALSE(eco::validate_delta(base, bad_add, cap_diag));
  EXPECT_TRUE(has_error(cap_diag, guard::Code::BadCap));

  guard::Diag mod_diag;
  eco::DesignDelta bad_module;
  bad_module.adds.push_back({{{10.0, 10.0}, 0.01}, base.rtl.num_modules()});
  EXPECT_FALSE(eco::validate_delta(base, bad_module, mod_diag));
  EXPECT_TRUE(has_error(mod_diag, guard::Code::ModuleMismatch));

  guard::Diag empty_diag;
  eco::DesignDelta wipe;
  for (int i = 0; i < base.num_sinks(); ++i) wipe.removes.push_back(i);
  EXPECT_FALSE(eco::validate_delta(base, wipe, empty_diag));
  EXPECT_TRUE(has_error(empty_diag, guard::Code::EmptyDesign));

  guard::Diag stream_diag;
  eco::DesignDelta bad_stream;
  bad_stream.stream.emplace();
  bad_stream.stream->seq.push_back(base.rtl.num_instructions());
  EXPECT_FALSE(eco::validate_delta(base, bad_stream, stream_diag));
  EXPECT_TRUE(has_error(stream_diag, guard::Code::StreamId));
}

TEST(EcoDelta, ZeroCapAddIsAnError) {
  // The in-memory check matches read_delta and strict validate_design: a
  // sink load must be positive, so a 0 pF add is GCR_E_CAP.
  const core::GatedClockRouter router = make_router(4, 32);
  guard::Diag diag;
  eco::DesignDelta zero_add;
  zero_add.adds.push_back({{{10.0, 10.0}, 0.0}, 0});
  EXPECT_FALSE(eco::validate_delta(router.design(), zero_add, diag));
  EXPECT_TRUE(has_error(diag, guard::Code::BadCap)) << diag_text(diag);
}

TEST(EcoDelta, OutOfDieMoveIsAWarningNotAnError) {
  const core::GatedClockRouter router = make_router(4, 33);
  guard::Diag diag;
  eco::DesignDelta d;
  d.moves.push_back({0, {-1e6, -1e6}});
  EXPECT_TRUE(eco::validate_delta(router.design(), d, diag));
  EXPECT_FALSE(diag.has_errors());
  EXPECT_FALSE(diag.entries().empty());  // the OutOfDie warning
}

TEST(EcoDelta, CoordinateAboveTheMaximumIsAnError) {
  // Out-of-die is only a warning, so the magnitude limit is checked on its
  // own: past it, squared wire lengths overflow the Elmore terms.
  const core::GatedClockRouter router = make_router(4, 33);
  guard::Diag move_diag;
  eco::DesignDelta far_move;
  far_move.moves.push_back({0, {1e200, 1e200}});
  EXPECT_FALSE(eco::validate_delta(router.design(), far_move, move_diag));
  EXPECT_TRUE(has_error(move_diag, guard::Code::Range));

  guard::Diag add_diag;
  eco::DesignDelta far_add;
  far_add.adds.push_back({{{-1e200, 10.0}, 0.01}, 0});
  EXPECT_FALSE(eco::validate_delta(router.design(), far_add, add_diag));
  EXPECT_TRUE(has_error(add_diag, guard::Code::Range));

  guard::Diag at_max;
  eco::DesignDelta max_move;
  const double max = guard::kMaxCoordinate;
  max_move.moves.push_back({0, {max, -max}});
  EXPECT_TRUE(eco::validate_delta(router.design(), max_move, at_max));
}

TEST(EcoDelta, SinkIndexMapCompactsSurvivors) {
  const core::GatedClockRouter router = make_router(5, 34);
  eco::DesignDelta d;
  d.removes = {1, 3};
  const std::vector<int> map = eco::sink_index_map(router.design(), d);
  ASSERT_EQ(map.size(), 5u);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[1], -1);
  EXPECT_EQ(map[2], 1);
  EXPECT_EQ(map[3], -1);
  EXPECT_EQ(map[4], 2);
}

TEST(EcoDelta, ApplyMovesRemovesAddsAndMaterializesModules) {
  const core::GatedClockRouter router = make_router(5, 35);
  const core::Design& base = router.design();
  eco::DesignDelta d;
  d.moves.push_back({0, {123.0, 456.0}});
  d.removes = {2};
  d.adds.push_back({{{777.0, 888.0}, 0.033}, 1});
  const core::Design out = eco::apply_delta(base, d);

  ASSERT_EQ(out.num_sinks(), 5);
  EXPECT_EQ(out.sinks[0].loc.x, 123.0);
  EXPECT_EQ(out.sinks[0].loc.y, 456.0);
  EXPECT_EQ(out.sinks[0].cap, base.sinks[0].cap);  // moves keep the cap
  // Survivor order preserved: old 1, 3, 4 follow at 1, 2, 3.
  EXPECT_EQ(out.sinks[1].loc.x, base.sinks[1].loc.x);
  EXPECT_EQ(out.sinks[2].loc.x, base.sinks[3].loc.x);
  EXPECT_EQ(out.sinks[3].loc.x, base.sinks[4].loc.x);
  EXPECT_EQ(out.sinks[4].loc.x, 777.0);
  EXPECT_EQ(out.sinks[4].cap, 0.033);
  // The implicit identity sink->module map broke, so it was materialized:
  // survivors keep their base module, the add names its own.
  ASSERT_EQ(static_cast<int>(out.sink_module.size()), out.num_sinks());
  EXPECT_EQ(out.sink_module[0], 0);
  EXPECT_EQ(out.sink_module[1], 1);
  EXPECT_EQ(out.sink_module[2], 3);
  EXPECT_EQ(out.sink_module[3], 4);
  EXPECT_EQ(out.sink_module[4], 1);
}

TEST(EcoDelta, PureMoveKeepsTheImplicitModuleMap) {
  const core::GatedClockRouter router = make_router(4, 36);
  eco::DesignDelta d;
  d.moves.push_back({2, {50.0, 60.0}});
  const core::Design out = eco::apply_delta(router.design(), d);
  EXPECT_TRUE(out.sink_module.empty());
  EXPECT_EQ(out.num_sinks(), 4);
}

TEST(EcoDelta, StreamReplacementSwapsTheStream) {
  const core::GatedClockRouter router = make_router(4, 37);
  eco::DesignDelta d;
  d.stream.emplace();
  d.stream->seq = {0, 1, 0, 2};
  const core::Design out = eco::apply_delta(router.design(), d);
  EXPECT_EQ(out.stream.seq, d.stream->seq);
}

// ---------------------------------------------------------------------------
// route_incremental

TEST(EcoRoute, SingleMoveMatchesScratchWithinTheDocumentedBound) {
  const core::GatedClockRouter router = make_router(48, 41);
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.num_threads = 1;
  const core::RouterResult prev = router.route(opts);

  eco::DesignDelta d;
  const geom::Point c = router.design().die.center();
  d.moves.push_back({5, {c.x * 0.5, c.y * 1.5}});

  eco::EcoInfo info;
  const core::RouteOutcome out =
      eco::route_incremental(router, prev, d, opts, &info);
  ASSERT_TRUE(out.ok()) << diag_text(out.diag);
  const core::RouterResult& inc = *out.result;

  EXPECT_EQ(inc.tree.num_leaves, 48);
  EXPECT_LT(inc.delays.skew(), 1e-6 * std::max(1.0, inc.delays.max_delay));

  // Equivalence-or-bounded-delta against the from-scratch route of the
  // applied design (docs/incremental.md; the differential enforces the
  // same bound over random designs).
  const core::GatedClockRouter scratch_router(
      eco::apply_delta(router.design(), d));
  const core::RouterResult scratch = scratch_router.route(opts);
  if (!verify::trees_identical(inc.tree, scratch.tree)) {
    const double a = inc.swcap.total_swcap();
    const double b = scratch.swcap.total_swcap();
    EXPECT_LE(std::max(a, b), 3.0 * std::min(a, b));
  }

  // Cone provenance: one dirty leaf, every merge accounted for exactly
  // once, and the moved leaf sits inside the cone under a fresh identity.
  EXPECT_EQ(info.dirty_leaves, 1);
  EXPECT_EQ(info.preserved_merges + info.spine_merges,
            inc.tree.num_nodes() - inc.tree.num_leaves);
  EXPECT_GT(info.preserved_merges, 0);  // one move must not rebuild the tree
  ASSERT_EQ(static_cast<int>(info.old_of.size()), inc.tree.num_nodes());
  ASSERT_EQ(static_cast<int>(info.in_cone.size()), inc.tree.num_nodes());
  EXPECT_TRUE(info.in_cone[5]);
  EXPECT_EQ(info.old_of[5], 5);  // a moved leaf keeps its identity...
  // ...but is in the cone, so the preservation loop below skips it.

  // Out-of-cone preservation: bottom-up fields bit-identical to prev.
  for (int id = 0; id < inc.tree.num_nodes(); ++id) {
    if (info.in_cone[static_cast<std::size_t>(id)]) continue;
    const int old = info.old_of[static_cast<std::size_t>(id)];
    ASSERT_GE(old, 0);
    const auto& x = inc.tree.node(id);
    const auto& y = prev.tree.node(old);
    EXPECT_EQ(x.edge_len, y.edge_len) << "node " << id;
    EXPECT_EQ(x.gated, y.gated) << "node " << id;
    EXPECT_EQ(x.down_cap, y.down_cap) << "node " << id;
    EXPECT_EQ(x.delay, y.delay) << "node " << id;
  }
}

TEST(EcoRoute, PureStreamReplacementPreservesTreeStructure) {
  const core::GatedClockRouter router = make_router(32, 42);
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.num_threads = 1;
  const core::RouterResult prev = router.route(opts);

  eco::DesignDelta d;
  d.stream.emplace();
  const auto& seq = router.design().stream.seq;
  for (std::size_t i = 0; i < seq.size(); i += 3)
    d.stream->seq.push_back(seq[i]);
  ASSERT_FALSE(d.structural());

  eco::EcoInfo info;
  const core::RouteOutcome out =
      eco::route_incremental(router, prev, d, opts, &info);
  ASSERT_TRUE(out.ok()) << diag_text(out.diag);
  const core::RouterResult& inc = *out.result;

  // The sink set is untouched: same shape, same wire, zero dirty leaves;
  // only probabilities and gate decisions may differ.
  EXPECT_EQ(info.dirty_leaves, 0);
  ASSERT_EQ(inc.tree.num_nodes(), prev.tree.num_nodes());
  for (int id = 0; id < inc.tree.num_nodes(); ++id) {
    EXPECT_EQ(inc.tree.node(id).parent, prev.tree.node(id).parent);
    EXPECT_EQ(inc.tree.node(id).edge_len, prev.tree.node(id).edge_len);
  }
}

TEST(EcoRoute, RemovalAndAdditionChangeTheLeafCount) {
  const core::GatedClockRouter router = make_router(24, 43);
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.num_threads = 1;
  const core::RouterResult prev = router.route(opts);

  eco::DesignDelta d;
  d.removes = {3, 17};
  d.adds.push_back({{{1000.0, 2000.0}, 0.02}, 5});
  eco::EcoInfo info;
  const core::RouteOutcome out =
      eco::route_incremental(router, prev, d, opts, &info);
  ASSERT_TRUE(out.ok()) << diag_text(out.diag);
  EXPECT_EQ(out.result->tree.num_leaves, 23);
  EXPECT_EQ(info.dirty_leaves, 3);
  EXPECT_LT(out.result->delays.skew(),
            1e-6 * std::max(1.0, out.result->delays.max_delay));
}

TEST(EcoRoute, InvalidDeltaYieldsDiagnosticsNotAResult) {
  const core::GatedClockRouter router = make_router(8, 44);
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  const core::RouterResult prev = router.route(opts);

  eco::DesignDelta d;
  d.moves.push_back({99, {1.0, 1.0}});
  const core::RouteOutcome out = eco::route_incremental(router, prev, d, opts);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(has_error(out.diag, guard::Code::Range));
  EXPECT_NE(out.exit_code(), 0);
}

TEST(EcoRoute, ExpiredDeadlineCancelsCleanly) {
  const core::GatedClockRouter router = make_router(32, 45);
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  const core::RouterResult prev = router.route(opts);

  eco::DesignDelta d;
  d.moves.push_back({0, {10.0, 10.0}});
  const core::RouteOutcome out = eco::route_incremental(
      router, prev, d, opts, nullptr, guard::Deadline::after_ms(0.0));
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.cancelled);
}

}  // namespace gcr
