#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "activity/analyzer.h"
#include "clocktree/elmore.h"
#include "clocktree/bounded.h"
#include "clocktree/embed.h"
#include "clocktree/routed_tree.h"
#include "core/design.h"
#include "core/option_names.h"
#include "cts/greedy.h"
#include "gating/controller.h"
#include "gating/gate_reduction.h"
#include "gating/swcap.h"
#include "guard/deadline.h"
#include "guard/status.h"
#include "tech/params.h"

/// \file router.h
/// The paper's PROCEDURE GatedClockRouting (section 4.2), packaged as the
/// library's top-level API. One router instance owns the activity engine
/// built from the design's instruction stream; route() runs the full flow
/// for a chosen tree style:
///
///   Buffered      -- conventional baseline: nearest-neighbor topology,
///                    half-size buffers on every edge, no enables.
///   Gated         -- the paper's Eq. 3 greedy with a masking gate on every
///                    edge (section 5.1 "gated").
///   GatedReduced  -- Gated followed by the gate-reduction heuristic and a
///                    re-embedding with the surviving gates (section 4.3).

namespace gcr::core {

struct RouterOptions {
  TreeStyle style{TreeStyle::GatedReduced};
  TopologyScheme topology{TopologyScheme::MinSwitchedCap};
  /// Two-level clustered construction (greedy within grid cells, then over
  /// cell subtrees): near-linear scaling for large N at a small wirelength
  /// premium. Applies to the greedy schemes of gated styles.
  bool clustered{false};
  gating::GateReductionParams reduction{};
  /// When set (GatedReduced only), sweep the reduction-strength knob and
  /// keep the gate set minimizing total switched capacitance -- the
  /// operating-point selection of the paper's Figure 5 ("we controlled the
  /// number of gates by giving different parameters"). Overrides
  /// `reduction`.
  bool auto_tune_reduction{false};
  /// Size gates per merge to minimize wire (paper section 1: gates "can be
  /// sized to adjust the phase delay"); Unit reproduces the base flow.
  ct::GateSizing gate_sizing{ct::GateSizing::Unit};
  /// Skew budget [ohm*pF]. 0 routes with exact zero skew (the paper's
  /// constraint); > 0 uses the bounded-skew engine, trading sink skew for
  /// the snake wirelength exact balancing would pay. Ignores gate_sizing.
  double skew_bound{0.0};
  int controller_partitions{1};  ///< perfect square; 1 = centralized CP
  /// Threads for the clustered builder's per-cell fan-out
  /// (cts/clustered.h); the flat greedy and the ECO spine re-merge are
  /// serial. 0 resolves to the GCR_THREADS environment default (else the
  /// hardware thread count); 1 runs serially. Results are bit-identical at
  /// every setting -- see docs/parallelism.md.
  int num_threads{0};
  /// Serve the greedy's best-partner queries from the maintained dynamic
  /// bucket index (cts::BuildOptions::partner_index): near-linear topology
  /// construction, bit-identical trees. `false` falls back to the
  /// exhaustive rescan engine -- the reference `gcr_check --index-diff`
  /// differential-checks against.
  bool partner_index{true};
  tech::TechParams tech{};
};

struct RouterResult;

/// Optional debug self-check hook: called with the finished result just
/// before route() returns. gcr::verify installs its invariant checker here
/// (verify::make_self_check); the hook may throw to reject the result.
/// Kept outside RouterOptions so option structs stay value-comparable and
/// cheap to copy in sweeps.
using SelfCheckHook =
    std::function<void(const RouterResult&, const RouterOptions&)>;

struct RouterResult {
  ct::RoutedTree tree;
  gating::NodeActivity activity;
  gating::SwCapReport swcap;
  ct::DelayReport delays;
  int gates_before_reduction{0};  ///< 2N-2 for gated styles, 0 for buffered

  /// Fraction of gates removed by the reduction heuristic.
  [[nodiscard]] double gate_reduction_pct() const {
    if (gates_before_reduction == 0) return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(tree.num_gates()) /
                      static_cast<double>(gates_before_reduction));
  }
};

/// What route_guarded() returns: the result when the run completed, plus
/// every diagnostic collected along the way (validation findings, the
/// cancellation record, detached-merge warnings). A partial outcome still
/// tells the caller which phases finished before the run stopped.
struct RouteOutcome {
  std::optional<RouterResult> result;
  guard::Diag diag;
  std::vector<std::string> phases_completed;
  std::string aborted_phase;  ///< phase the deadline fired in ("" when none)
  bool cancelled{false};

  [[nodiscard]] bool ok() const { return result.has_value(); }
  /// Exit code under the CLI contract: 0 when a result exists (warnings
  /// do not fail a run), else the worst collected diagnostic's code.
  [[nodiscard]] int exit_code() const {
    return ok() ? guard::kExitOk : diag.exit_code();
  }
};

class GatedClockRouter {
 public:
  explicit GatedClockRouter(Design design);

  // Self-referential: analyzer_ points into design_, so a moved or copied
  // router would keep reading the original object. Construct in place.
  GatedClockRouter(const GatedClockRouter&) = delete;
  GatedClockRouter& operator=(const GatedClockRouter&) = delete;
  GatedClockRouter(GatedClockRouter&&) = delete;
  GatedClockRouter& operator=(GatedClockRouter&&) = delete;

  [[nodiscard]] const Design& design() const { return design_; }
  [[nodiscard]] const activity::ActivityAnalyzer& analyzer() const {
    return analyzer_;
  }

  /// Run the full flow for the requested style. When `self_check` is set it
  /// runs on the finished result (after observability bookkeeping) and may
  /// throw; auto-tune candidate results are not individually checked.
  /// Throws guard::GuardError when the design fails (lenient) validation
  /// or an internal numeric guard trips; equivalent to route_guarded()
  /// with an unlimited deadline plus a throw on the first error.
  [[nodiscard]] RouterResult route(const RouterOptions& opts,
                                   const SelfCheckHook& self_check = {}) const;

  /// The guarded flow: validates the design (leniently -- out-of-die,
  /// duplicate and zero-cap sinks become warnings; stream ids are checked
  /// from the analyzer's count, not rescanned), installs `deadline` as
  /// the ambient deadline for the run, and converts cancellation and
  /// guard errors into diagnostics on the outcome instead of exceptions.
  /// Non-guard exceptions (e.g. a rejecting self-check hook) propagate
  /// unchanged. Deadline polls sit only at deterministic positions in the
  /// serial control flow, so behavior is bit-identical at every thread
  /// width (docs/robustness.md).
  [[nodiscard]] RouteOutcome route_guarded(
      const RouterOptions& opts,
      const guard::Deadline& deadline = guard::Deadline(),
      const SelfCheckHook& self_check = {}) const;

 private:
  RouterResult route_impl(const RouterOptions& opts,
                          const SelfCheckHook& self_check,
                          std::vector<std::string>* phases) const;

  Design design_;
  std::vector<int> leaf_module_;
  activity::ActivityAnalyzer analyzer_;
};

}  // namespace gcr::core
