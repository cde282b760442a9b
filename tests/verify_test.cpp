#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>

#include "core/router.h"
#include "obs/json.h"
#include "test_seed.h"
#include "verify/differential.h"
#include "verify/generator.h"
#include "verify/invariants.h"

/// Tests of the verification harness itself, in three bands:
///   * clean runs: every style/topology verifies with zero violations;
///   * mutation smoke tests: a seeded bug planted into a routed result must
///     trip the matching invariant family -- this is the proof the checker
///     actually fires, not just the proof it stays quiet;
///   * the differential driver: >= 100 random designs across all topology
///     schemes, cross-checked against the brute-force activity oracle, with
///     zero violations, fast enough for every CI run.

namespace gcr::verify {
namespace {

bool fires(const Report& rep, Invariant inv) {
  for (const Violation& v : rep.violations) {
    if (v.invariant == inv) return true;
  }
  return false;
}

struct Routed {
  // Heap-held: GatedClockRouter is immovable (its analyzer points into
  // its own design).
  std::unique_ptr<core::GatedClockRouter> router_ptr;
  core::RouterOptions opts;
  core::RouterResult result;

  const core::GatedClockRouter& router() const { return *router_ptr; }
};

Routed route_spec(const DesignSpec& spec, core::RouterOptions opts = {}) {
  auto router =
      std::make_unique<core::GatedClockRouter>(generate_design(spec));
  core::RouterResult result = router->route(opts);
  return {std::move(router), opts, std::move(result)};
}

DesignSpec default_spec() {
  DesignSpec spec;
  spec.seed = test::fuzz_seeds({424242}).front();
  spec.num_sinks = 48;
  spec.stream_length = 1500;
  return spec;
}

// ---- clean runs --------------------------------------------------------

TEST(VerifyClean, EveryStyleVerifies) {
  const DesignSpec spec = default_spec();
  for (const core::TreeStyle style :
       {core::TreeStyle::Buffered, core::TreeStyle::Gated,
        core::TreeStyle::GatedReduced}) {
    core::RouterOptions opts;
    opts.style = style;
    const Routed r = route_spec(spec, opts);
    const Report rep = verify_result(r.router(), r.opts, r.result);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GE(rep.checks_run, 3);
  }
}

TEST(VerifyClean, EveryTopologySchemeVerifies) {
  const DesignSpec spec = default_spec();
  for (const core::TopologyScheme scheme :
       {core::TopologyScheme::MinSwitchedCap,
        core::TopologyScheme::NearestNeighbor,
        core::TopologyScheme::ActivityOnly, core::TopologyScheme::Mmm}) {
    core::RouterOptions opts;
    opts.style = core::TreeStyle::Gated;
    opts.topology = scheme;
    const Routed r = route_spec(spec, opts);
    const Report rep = verify_result(r.router(), r.opts, r.result);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
}

TEST(VerifyClean, BoundedSkewAndPartitionsVerify) {
  const DesignSpec spec = default_spec();
  core::RouterOptions opts;
  opts.skew_bound = 30.0;
  opts.controller_partitions = 4;
  const Routed r = route_spec(spec, opts);
  const Report rep = verify_result(r.router(), r.opts, r.result);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(VerifyClean, SelfCheckHookAcceptsGoodResult) {
  const DesignSpec spec = default_spec();
  core::GatedClockRouter router(generate_design(spec));
  core::RouterOptions opts;
  EXPECT_NO_THROW({
    const core::RouterResult r = router.route(opts, make_self_check(router));
    (void)r;
  });
}

// ---- mutation smoke tests: seeded bugs the checker must catch ----------

class Mutation : public ::testing::Test {
 protected:
  Mutation() : r_(route_spec(default_spec())) {}

  Report verify() const {
    return verify_result(r_.router(), r_.opts, r_.result);
  }

  /// Some internal, non-root node (mutating a leaf or the root trips
  /// different families than the one under test).
  int internal_node() const {
    const ct::RoutedTree& t = r_.result.tree;
    for (int id = t.num_leaves; id < t.num_nodes(); ++id) {
      if (id != t.root) return id;
    }
    return t.root;
  }

  Routed r_;
};

TEST_F(Mutation, SkewedMergePointFires) {
  // Bug: an embedding pass places a merge point off its merging segment
  // (e.g. a transposed coordinate). The stored edge length no longer covers
  // the Manhattan distance and the re-derived sink delays fall out of
  // balance.
  const int id = internal_node();
  r_.result.tree.nodes[static_cast<std::size_t>(id)].loc.x += 400.0;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::Geometry) ||
              fires(rep, Invariant::MergeBalance) ||
              fires(rep, Invariant::Skew))
      << rep.summary();
}

TEST_F(Mutation, StretchedEdgeFires) {
  // Bug: a snaking fix-up adds wire on one branch without re-balancing.
  const int id = internal_node();
  r_.result.tree.nodes[static_cast<std::size_t>(id)].edge_len += 250.0;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::CapConsistency) ||
              fires(rep, Invariant::MergeBalance) ||
              fires(rep, Invariant::Skew))
      << rep.summary();
}

TEST_F(Mutation, CorruptedDownCapFires) {
  // Bug: an incremental-update path leaves a stale downstream cap behind.
  const int id = internal_node();
  r_.result.tree.nodes[static_cast<std::size_t>(id)].down_cap += 0.05;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::CapConsistency)) << rep.summary();
}

TEST_F(Mutation, BrokenParentPointerFires) {
  // Bug: a tree rewrite leaves a dangling parent pointer.
  const int id = internal_node();
  const int old_parent =
      r_.result.tree.nodes[static_cast<std::size_t>(id)].parent;
  r_.result.tree.nodes[static_cast<std::size_t>(id)].parent =
      (old_parent == 0) ? 1 : 0;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::Structure)) << rep.summary();
}

TEST_F(Mutation, GatedRootFires) {
  // Bug: the gate-insertion pass forgets the root exception (there is no
  // parent edge to gate).
  r_.result.tree.nodes[static_cast<std::size_t>(r_.result.tree.root)].gated =
      true;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::Structure)) << rep.summary();
}

TEST_F(Mutation, StaleEnableProbabilityFires) {
  // Bug: gate reduction re-embeds the tree but keeps the old P(EN) cache.
  const int id = internal_node();
  r_.result.activity.p_en[static_cast<std::size_t>(id)] =
      std::min(1.0, r_.result.activity.p_en[static_cast<std::size_t>(id)] +
                        0.25);
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::ActivityMask) ||
              fires(rep, Invariant::ActivityMonotone) ||
              fires(rep, Invariant::SwCapRecompute))
      << rep.summary();
}

TEST_F(Mutation, TamperedSwcapTotalFires) {
  // Bug: an evaluator "optimization" drops a term of W(T).
  r_.result.swcap.clock_swcap *= 0.9;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::SwCapRecompute)) << rep.summary();
}

TEST_F(Mutation, DroppedGateFromControllerStarFires) {
  // Bug: the controller star misses a surviving gate -- its wire and count
  // vanish from W(S).
  r_.result.swcap.num_cells -= 1;
  r_.result.swcap.star_wirelength *= 0.8;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::ControllerCover) ||
              fires(rep, Invariant::SwCapRecompute))
      << rep.summary();
}

TEST_F(Mutation, TamperedDelayReportFires) {
  // Bug: the reported max delay is from a stale run.
  r_.result.delays.max_delay *= 1.5;
  const Report rep = verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::DelayReport)) << rep.summary();
}

TEST(MutationFree, GateReductionRegressionFires) {
  Report rep;
  check_gate_reduction(/*full=*/1.0, /*reduced=*/1.0000001, rep);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(fires(rep, Invariant::GateReduction));
  Report ok_rep;
  check_gate_reduction(/*full=*/1.0, /*reduced=*/0.8, ok_rep);
  EXPECT_TRUE(ok_rep.ok());
}

TEST_F(Mutation, SelfCheckHookThrowsOnBadResult) {
  // The hook wraps verify_result: a corrupted result must raise
  // VerificationError with the offending report attached.
  r_.result.tree.nodes[static_cast<std::size_t>(internal_node())].down_cap +=
      0.05;
  const auto hook = make_self_check(r_.router());
  try {
    hook(r_.result, r_.opts);
    FAIL() << "self-check accepted a corrupted result";
  } catch (const VerificationError& e) {
    EXPECT_FALSE(e.report().ok());
    EXPECT_TRUE(fires(e.report(), Invariant::CapConsistency));
  }
}

// ---- artifacts ---------------------------------------------------------

TEST(Artifact, FailureDumpIsValidReplayableJson) {
  const DesignSpec spec = random_spec(12345);
  Report rep;
  rep.violations.push_back(
      {Invariant::Skew, 7, 1.25, 0.0, "sink 7 delay off"});
  std::ostringstream os;
  write_design_artifact(os, spec, "route:gated:swcap", &rep);
  const std::string doc = os.str();
  EXPECT_TRUE(obs::json::valid(doc)) << doc;
  EXPECT_NE(doc.find("gcr.verify_artifact"), std::string::npos);
  EXPECT_NE(doc.find(std::to_string(spec.seed)), std::string::npos);
  EXPECT_NE(doc.find("sink 7 delay off"), std::string::npos);
}

TEST(Artifact, SpecReplaysDeterministically) {
  const std::uint64_t seed = design_seed(2026, 17);
  const DesignSpec a = random_spec(seed);
  const DesignSpec b = random_spec(seed);
  EXPECT_EQ(a.num_sinks, b.num_sinks);
  EXPECT_EQ(a.stream_length, b.stream_length);
  const core::Design da = generate_design(a);
  const core::Design db = generate_design(b);
  ASSERT_EQ(da.sinks.size(), db.sinks.size());
  for (std::size_t i = 0; i < da.sinks.size(); ++i) {
    EXPECT_EQ(da.sinks[i].loc.x, db.sinks[i].loc.x);
    EXPECT_EQ(da.sinks[i].cap, db.sinks[i].cap);
  }
  EXPECT_EQ(da.stream.seq, db.stream.seq);
}

// ---- the differential driver -------------------------------------------

TEST(Differential, HundredRandomDesignsAllSchemesZeroViolations) {
  DiffOptions opts;
  opts.num_designs = 100;
  opts.seed = test::fuzz_seeds({2026}).front();
  const auto t0 = std::chrono::steady_clock::now();
  const DiffStats stats = run_differential(opts);
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(stats.designs, 100);
  // 4 gated schemes + reduced + buffered + 2 thread-determinism routes
  // + 1 index-determinism (exhaustive partner selection) + clustered per
  // design.
  EXPECT_EQ(stats.routes, 1000);
  EXPECT_GE(stats.activity_checks, 100 * 26);
  for (const DiffFailure& f : stats.failures) {
    ADD_FAILURE() << "seed " << f.spec.seed << " [" << f.stage << "] "
                  << f.message << '\n'
                  << f.report.summary();
  }
  EXPECT_LT(secs, 60) << "differential run too slow for CI";
}

TEST(Differential, IndexedPartnerSelectionMatchesExhaustive) {
  IndexDiffOptions opts;
  opts.num_designs = 6;
  opts.seed = test::fuzz_seeds({424242}).front();
  const DiffStats stats = run_index_differential(opts);
  EXPECT_EQ(stats.designs, 6);
  // 4 schemes x {flat, clustered at 1 and 4 threads} x {index on, off}.
  EXPECT_EQ(stats.routes, 6 * 24);
  for (const DiffFailure& f : stats.failures) {
    ADD_FAILURE() << "seed " << f.spec.seed << " [" << f.stage << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace gcr::verify
