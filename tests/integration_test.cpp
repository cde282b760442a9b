#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "activity/brute_force.h"
#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "core/router.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/session.h"
#include "prof/recorder.h"

/// End-to-end integration checks on an r1-class instance: the full flow
/// (workload -> tables -> topology -> gating -> embedding -> evaluation)
/// with cross-validation of the evaluator's probabilities against the
/// brute-force stream oracle, and the paper's qualitative orderings.

namespace gcr {
namespace {

class Integration : public ::testing::Test {
 protected:
  static constexpr int kSinks = 96;

  static core::Design make() {
    benchdata::RBenchSpec spec{"it", kSinks, 16000.0, 0.005, 0.08, 77};
    benchdata::RBench bench = benchdata::generate_rbench(spec);
    benchdata::WorkloadSpec wspec;
    wspec.num_instructions = 24;
    wspec.num_clusters = 16;
    wspec.target_activity = 0.35;
    wspec.stream_length = 8000;
    wspec.seed = 77;
    benchdata::Workload wl =
        benchdata::generate_workload(wspec, bench.sinks, bench.die);
    return core::Design{bench.die, bench.sinks, std::move(wl.rtl),
                        std::move(wl.stream), {}};
  }

  core::GatedClockRouter router{make()};
};

TEST_F(Integration, EvaluatorProbabilitiesMatchStreamOracle) {
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  const core::RouterResult r = router.route(opts);
  const activity::BruteForceActivity oracle(router.design().rtl,
                                            router.design().stream);

  // Reconstruct each node's module set from the tree and compare the
  // evaluator's P(EN)/P_tr(EN) against a full stream rescan.
  const int n = r.tree.num_nodes();
  std::vector<activity::ModuleSet> mods(
      static_cast<std::size_t>(n),
      activity::ModuleSet(router.design().rtl.num_modules()));
  for (int id = 0; id < n; ++id) {
    const ct::RoutedNode& node = r.tree.node(id);
    if (node.is_leaf()) {
      mods[static_cast<std::size_t>(id)].set(id);
    } else {
      mods[static_cast<std::size_t>(id)] =
          mods[static_cast<std::size_t>(node.left)] |
          mods[static_cast<std::size_t>(node.right)];
    }
  }
  for (const int id : {0, kSinks / 2, kSinks, n - 2, n - 1}) {
    EXPECT_EQ(r.activity.p_en[static_cast<std::size_t>(id)],
              oracle.signal_prob(mods[static_cast<std::size_t>(id)]))
        << "node " << id;
    EXPECT_EQ(r.activity.p_tr[static_cast<std::size_t>(id)],
              oracle.transition_prob(mods[static_cast<std::size_t>(id)]))
        << "node " << id;
  }
}

TEST_F(Integration, PaperOrderingHoldsAtModerateActivity) {
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Buffered;
  const auto buffered = router.route(opts);
  opts.style = core::TreeStyle::Gated;
  const auto gated = router.route(opts);
  opts.style = core::TreeStyle::GatedReduced;
  const auto reduced = router.route(opts);

  // Fig. 3's qualitative story:
  //  - gating the clock tree cuts W(T) well below the buffered tree's;
  EXPECT_LT(gated.swcap.clock_swcap, buffered.swcap.clock_swcap);
  //  - but the star routing makes the *total* worse than (or comparable
  //    to) buffered -- the overhead the paper calls out;
  EXPECT_GT(gated.swcap.total_swcap(), 0.9 * buffered.swcap.total_swcap());
  //  - gate reduction restores the win;
  EXPECT_LT(reduced.swcap.total_swcap(), buffered.swcap.total_swcap());
  EXPECT_LT(reduced.swcap.total_swcap(), gated.swcap.total_swcap());
  //  - while buffered remains the area champion.
  EXPECT_GT(reduced.swcap.total_area(), buffered.swcap.total_area());
}

TEST_F(Integration, ZeroSkewAcrossAllStylesAtScale) {
  for (const auto style : {core::TreeStyle::Buffered, core::TreeStyle::Gated,
                           core::TreeStyle::GatedReduced}) {
    core::RouterOptions opts;
    opts.style = style;
    const auto r = router.route(opts);
    EXPECT_LT(r.delays.skew(), 1e-6 * std::max(1.0, r.delays.max_delay));
  }
}

TEST_F(Integration, FullFlowIsDeterministic) {
  core::RouterOptions opts;
  opts.style = core::TreeStyle::GatedReduced;
  opts.auto_tune_reduction = true;
  const auto a = router.route(opts);
  const auto b = router.route(opts);
  EXPECT_DOUBLE_EQ(a.swcap.total_swcap(), b.swcap.total_swcap());
  EXPECT_DOUBLE_EQ(a.tree.total_wirelength(), b.tree.total_wirelength());
  EXPECT_EQ(a.tree.num_gates(), b.tree.num_gates());
  for (int id = 0; id < a.tree.num_nodes(); ++id) {
    EXPECT_EQ(a.tree.node(id).gated, b.tree.node(id).gated) << id;
    EXPECT_DOUBLE_EQ(a.tree.node(id).loc.x, b.tree.node(id).loc.x) << id;
  }
}

TEST_F(Integration, ObservedRunReportsAllPhasesAndEveryMerge) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  obs::Session session;
  prof::Capture trace;
  core::RouterResult r;
  core::RouterOptions opts;
  {
    obs::Bind bind(&session);
    // A fresh router inside the binding so the analyze phase is captured.
    core::GatedClockRouter observed(make());
    opts.style = core::TreeStyle::Gated;
    r = observed.route(opts);
  }

  // The greedy front performs exactly N-1 merges, and each one leaves a
  // decision event in the trace.
  EXPECT_EQ(obs::Registry::global().counter("cts.merges").value(),
            static_cast<std::uint64_t>(kSinks - 1));
  trace.stop();
  int merge_events = 0;
  for (const prof::Event& e : trace.events())
    if (e.kind == prof::Ev::Merge) ++merge_events;
  EXPECT_EQ(merge_events, kSinks - 1);

  std::ostringstream os;
  obs::RunReport rep;
  rep.tool = "integration_test";
  rep.options = &opts;
  rep.result = &r;
  obs::write_run_report(os, session, rep);
  const std::string doc = os.str();
  const std::optional<obs::json::Value> parsed = obs::json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc.substr(0, 400);
  const std::vector<std::string> problems = obs::validate_run_report(*parsed);
  EXPECT_TRUE(problems.empty()) << problems.front();
  for (const char* phase : {"\"analyze\"", "\"route\"", "\"topology\"",
                            "\"controller\"", "\"embed\"", "\"eval\"",
                            "\"delays\""})
    EXPECT_NE(doc.find(phase), std::string::npos) << phase;
  EXPECT_NE(doc.find("\"cts.merges\":95"), std::string::npos);

  // The Chrome export carries the same N-1 merge instants, with their args.
  std::ostringstream ts;
  trace.write_chrome_json(ts);
  const std::optional<obs::json::Value> chrome = obs::json::parse(ts.str());
  ASSERT_TRUE(chrome.has_value()) << ts.str().substr(0, 400);
  int chrome_merges = 0;
  for (const obs::json::Value& e : chrome->as_array()) {
    const obs::json::Value* name = e.find("name");
    if (name == nullptr || name->as_string() != "merge") continue;
    ++chrome_merges;
    ASSERT_NE(e.find("args"), nullptr);
    EXPECT_NE(e.find("args")->find("cost"), nullptr);
    EXPECT_NE(e.find("args")->find("front"), nullptr);
  }
  EXPECT_EQ(chrome_merges, kSinks - 1);

  obs::set_metrics_enabled(false);
  obs::Registry::global().reset();
}

TEST_F(Integration, ClusteredBuildStillPerformsExactlyNMinusOneMerges) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.clustered = true;
  (void)router.route(opts);
  // N - C local merges plus C - 1 top-level merges: still N - 1 total.
  EXPECT_EQ(obs::Registry::global().counter("cts.merges").value(),
            static_cast<std::uint64_t>(kSinks - 1));
  obs::set_metrics_enabled(false);
  obs::Registry::global().reset();
}

TEST_F(Integration, ReductionSweepHasInteriorOptimum) {
  // Fig. 5: with no reduction the controller dominates; with maximal
  // reduction the clock tree pays; somewhere in between is the minimum.
  double w_none = 0.0, w_full = 0.0, w_best = 1e300;
  for (const double s : {0.0, 0.3, 0.5, 0.7, 0.95}) {
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    opts.reduction = gating::GateReductionParams::from_strength(s);
    const auto r = router.route(opts);
    const double w = r.swcap.total_swcap();
    if (s == 0.0) w_none = w;
    if (s == 0.95) w_full = w;
    w_best = std::min(w_best, w);
  }
  EXPECT_LT(w_best, w_none);
  EXPECT_LT(w_best, w_full);
}

}  // namespace
}  // namespace gcr
