#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "clocktree/elmore.h"
#include "clocktree/routed_tree.h"
#include "core/router.h"
#include "gating/controller.h"
#include "gating/swcap.h"
#include "tech/params.h"

/// \file invariants.h
/// Cross-cutting invariant checker over routed gated clock trees. The
/// paper's claims rest on exact properties -- zero Elmore skew at every
/// merge (Tsay'91 machinery) and a switched-capacitance objective whose
/// value is reproducible from first principles (section 2, W(T) + W(S)) --
/// so every checker here re-derives its quantity from the routed tree and
/// the technology parameters alone and compares against the stored /
/// reported values. None of the construction-phase arithmetic is reused:
/// caps and delays are recomputed with a fresh traversal, enable domains by
/// explicit ancestor walks, star lengths by brute-force nearest-controller
/// scans. A perf refactor that corrupts any of the machinery therefore
/// cannot also corrupt its own referee.
///
/// The catalogue (see docs/verification.md for paper-equation references):
///   Structure        parent/child/root bookkeeping is a single binary tree
///   Geometry         edge_len >= Manhattan(node, parent); 0 at the root
///   CapConsistency   stored down_cap == re-derived downstream capacitance
///   DelayConsistency stored subtree delay == re-derived zero-skew delay
///   MergeBalance     sibling branch delays agree at every merge (zero skew)
///   Skew             re-derived sink skew == 0, or <= the bound
///   ActivityMask     node masks are unions of leaf masks; P / P_tr match
///                    the analyzer exactly
///   ActivityMonotone P(EN) never decreases from a node to its parent
///   SwCapRecompute   W(T) + W(S) from first principles within 1e-9 of the
///                    evaluator's report
///   ControllerCover  every surviving gate is served by its *nearest*
///                    controller and counted in the report
///   GateReduction    reduction never increased total switched capacitance
///   DelayReport      the result's DelayReport matches the re-derivation

namespace gcr::verify {

enum class Invariant {
  Structure,
  Geometry,
  CapConsistency,
  DelayConsistency,
  MergeBalance,
  Skew,
  ActivityMask,
  ActivityMonotone,
  SwCapRecompute,
  ControllerCover,
  GateReduction,
  DelayReport,
};

[[nodiscard]] std::string_view invariant_name(Invariant inv);

struct Violation {
  Invariant invariant;
  int node{-1};  ///< offending node id, -1 for tree-global violations
  double measured{0.0};
  double expected{0.0};
  std::string message;
};

/// Comparison tolerances. The defaults encode the contract the paper's
/// exactness claims imply: capacitances are sums of a few thousand doubles
/// (tolerance ~1e-9 absolute / relative), delays compare relative to their
/// own magnitude, geometry to placement resolution. Activities have no
/// tolerance: they are integer counts over B or B - 1 and compare exactly.
struct Tolerances {
  double rel_delay{1e-6};   ///< skew / delay comparisons, relative
  double abs_cap{1e-9};     ///< capacitance comparisons [pF]
  double rel_swcap{1e-9};   ///< W(T)+W(S) recompute vs the evaluator
  double abs_geom{1e-6};    ///< edge length vs placed distance [lambda]
};

struct Report {
  std::vector<Violation> violations;
  int checks_run{0};  ///< invariant families executed

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Human-readable listing: one line per violation, or "ok".
  [[nodiscard]] std::string summary() const;
};

/// Thrown by the router self-check hook (make_self_check) on violation.
class VerificationError : public std::runtime_error {
 public:
  explicit VerificationError(Report rep)
      : std::runtime_error(rep.summary()), report_(std::move(rep)) {}
  [[nodiscard]] const Report& report() const { return report_; }

 private:
  Report report_;
};

// ---- individual invariant families ------------------------------------

/// Structure: every node reachable from the root exactly once, leaf ids
/// 0..num_leaves-1, internal nodes binary, parent pointers consistent, the
/// root carries no gate.
void check_structure(const ct::RoutedTree& tree, Report& rep);

/// Geometry: a routed edge is at least as long as the Manhattan distance
/// between its placed endpoints (snaking only adds wire), the root edge is
/// zero-length, and gate sizes are positive.
void check_geometry(const ct::RoutedTree& tree, Report& rep,
                    const Tolerances& tol = {});

/// Electrical re-derivation: downstream caps bottom-up, subtree delays and
/// per-merge branch balance (zero-skew mode), source-to-sink skew against
/// `skew_bound` (0 = exact). For bounded trees (`skew_bound > 0`) the
/// per-merge balance and stored-delay checks are skipped -- node.delay
/// stores the subtree's dmax there and siblings legitimately differ.
void check_electrical(const ct::RoutedTree& tree, const tech::TechParams& tech,
                      double skew_bound, Report& rep,
                      const Tolerances& tol = {});

/// Activity: leaf masks match the analyzer's module masks, internal masks
/// are child unions, and the cached P(EN) / P_tr(EN) equal fresh analyzer
/// queries on the re-derived masks exactly.
void check_activity(const ct::RoutedTree& tree,
                    const gating::NodeActivity& act,
                    const activity::ActivityAnalyzer& analyzer,
                    const std::vector<int>& leaf_module, Report& rep);

/// Monotonicity alone (no analyzer required): enables only widen towards
/// the root, so P(EN) of a child never exceeds its parent's, and all
/// probabilities lie in [0, 1]. Both hold exactly: a P(EN) is an issue
/// count over B, and a child's count never exceeds its parent's.
void check_activity_monotone(const ct::RoutedTree& tree,
                             const gating::NodeActivity& act, Report& rep);

/// Recompute W(T) and W(S) from first principles -- explicit
/// nearest-gated-ancestor walks for enable domains, brute-force nearest
/// controller for star lengths -- and compare every field of the report.
void check_swcap(const ct::RoutedTree& tree, const gating::NodeActivity& act,
                 const gating::ControllerPlacement& ctrl,
                 const tech::TechParams& tech, gating::CellStyle style,
                 const gating::SwCapReport& reported, Report& rep,
                 const Tolerances& tol = {});

/// Controller star covers every surviving gate: the placement's chosen
/// controller is the nearest one, the gate count matches the report, and
/// the summed star wirelength reproduces the report's.
void check_controller_cover(const ct::RoutedTree& tree,
                            const gating::ControllerPlacement& ctrl,
                            const gating::SwCapReport& reported, Report& rep,
                            const Tolerances& tol = {});

/// Gate reduction may only lower the objective it optimizes.
void check_gate_reduction(double full_total_swcap, double reduced_total_swcap,
                          Report& rep, const Tolerances& tol = {});

/// The result's DelayReport (min/max/per-sink) matches the re-derivation.
void check_delay_report(const ct::RoutedTree& tree,
                        const tech::TechParams& tech,
                        const ct::DelayReport& reported, Report& rep,
                        const Tolerances& tol = {});

// ---- one-stop entry points --------------------------------------------

/// Tree-only verification (structure, geometry, electrical): everything
/// checkable from a routed-tree dump without the design's workload, e.g.
/// `gcr_check --tree`.
[[nodiscard]] Report verify_tree(const ct::RoutedTree& tree,
                                 const tech::TechParams& tech,
                                 double skew_bound = 0.0,
                                 const Tolerances& tol = {});

/// Full verification of one router run: every family above except
/// GateReduction (which needs the pre-reduction run; the differential
/// driver covers it).
[[nodiscard]] Report verify_result(const core::GatedClockRouter& router,
                                   const core::RouterOptions& opts,
                                   const core::RouterResult& result,
                                   const Tolerances& tol = {});

/// A RouterOptions::self_check hook running verify_result and throwing
/// VerificationError on violation. `router` is captured by reference and
/// must outlive the returned hook.
[[nodiscard]] std::function<void(const core::RouterResult&,
                                 const core::RouterOptions&)>
make_self_check(const core::GatedClockRouter& router,
                const Tolerances& tol = {});

}  // namespace gcr::verify
